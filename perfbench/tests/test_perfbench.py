"""Tests of the benchmark itself: traffic, self time, and a tiny run of each workload.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import os
import statistics

import numpy as np
import pytest

import calibrate
import lifecycle
import run
import spans
import traffic
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _tiny(workload):
    spec = dataclasses.replace(workload.spec, n_types=200, n_train=48, n_eval=16,
                               n_requests=40)
    return dataclasses.replace(workload, spec=spec, epochs=3, score_floor=0.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traffic_is_deterministic_per_seed(name):
    spec = _tiny(workloads.WORKLOADS[name]).spec
    a, b, c = traffic.generate(spec, 7), traffic.generate(spec, 7), traffic.generate(spec, 8)
    assert a == b
    assert a.requests != c.requests
    assert a.train_rows != c.train_rows
    assert traffic.request_stats(a) == traffic.request_stats(b)


def test_traffic_properties_follow_the_spec():
    tagger = traffic.generate(workloads.WORKLOADS["tagger_char"].spec, 3)
    doc = traffic.generate(workloads.WORKLOADS["doc_cnn"].spec, 3)
    t_stats, d_stats = traffic.request_stats(tagger), traffic.request_stats(doc)
    assert 0.2 < t_stats["mixed_case_share"] < 0.4
    assert d_stats["mixed_case_share"] == 0.0
    assert 0.05 < d_stats["oov_share"] < 0.2
    lo, hi = workloads.WORKLOADS["doc_cnn"].spec.serve_len
    assert all(lo <= len(text.split()) <= hi for text in doc.requests)


def test_self_time_on_a_synthetic_span_tree():
    # 0: root [0, 100] with children 1 [10, 30] and 2 [20, 50] overlapping,
    #    and 4 [90, 120] running past the root's end (clipped to 90..100)
    # 3: grandchild [12, 18] inside 1
    # 5: a second root [200, 260] with no children
    start = [0, 10, 20, 12, 90, 200]
    end = [100, 30, 50, 18, 120, 260]
    parent = [-1, 0, 0, 1, 0, -1]
    got = spans.self_times(start, end, parent).tolist()
    assert got == [100 - 40 - 10, 20 - 6, 30, 6, 30, 60]


def test_self_time_matches_a_direct_computation_on_nested_spans():
    # a random well-nested single-threaded trace, clocked by hand
    rng = np.random.default_rng(0)
    start, end, parent, stack = [], [], [], []
    clock = 0
    while len(start) < 150 or stack:
        clock += int(rng.integers(1, 5))
        if stack and (len(start) >= 150 or rng.random() < 0.5):
            end[stack.pop()] = clock
        else:
            parent.append(stack[-1] if stack else -1)
            start.append(clock)
            end.append(None)
            stack.append(len(start) - 1)
    got = spans.self_times(start, end, parent)
    for i in range(len(start)):
        children = sum(end[j] - start[j] for j in range(len(start)) if parent[j] == i)
        assert got[i] == end[i] - start[i] - children


def test_tracer_records_parents_requests_and_undoes_patches():
    class Box:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Box.inner(x) * 2

    tracer = spans.Tracer()
    tracer.span_at(Box, "inner", "box.inner")
    tracer.span_at(Box, "outer", "box.outer")
    tracer.set_phase("serve")
    tracer.request_id = 5
    assert Box.outer(1) == 4
    tracer.uninstall()
    assert not hasattr(Box.inner, "__wrapped__")
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name_id"]]
    assert names == ["box.outer", "box.inner"]
    assert a["parent"].tolist() == [-1, 0]
    assert a["request"].tolist() == [5, 5]
    totals, calls, _, _ = spans.aggregate(tracer)
    assert calls[("serve", "box.inner")] == 1


def test_timings_are_scaled_by_the_host_speed_around_them():
    ref = calibrate.REFERENCE_NS
    # marks every 10 ns: host at reference speed until t=100, then half as fast
    mark_t = list(range(0, 201, 10))
    mark_ns = [ref if t < 100 else 2 * ref for t in mark_t]
    got = calibrate.at_reference_speed([30, 150, 95], [5, 8, 10], mark_t, mark_ns)
    assert got[0] == 5.0
    assert got[1] == 4.0
    # a sample across the switch is scaled by the median of the marks around it
    lo, hi = 9 - calibrate.MARKS_AROUND, 11 + calibrate.MARKS_AROUND
    around = statistics.median(mark_ns[lo:hi + 1])
    assert got[2] == pytest.approx(10 * ref / around)
    # one mark caught by a stall does not move the samples near it
    stalled = list(mark_ns)
    stalled[3] = 50 * ref
    assert calibrate.at_reference_speed([30], [5], mark_t, stalled)[0] == 5.0


def test_p99_over_texts_ignores_a_stall_on_one_repeat():
    ids = [i % 100 for i in range(350)]  # texts 0-49 served 4 times, 50-99 3 times
    samples = [1.0 + i % 100 for i in range(350)]
    assert lifecycle.per_text_percentile(ids, samples, 0.99) == 99.0
    samples[150] = 1e6  # text 50, the second of its three servings
    assert lifecycle.per_text_percentile(ids, samples, 0.99) == 99.0
    samples[250] = 1e6  # and its third: now its median is the stall
    assert lifecycle.per_text_percentile(ids, samples, 0.99) == 100.0
    assert lifecycle.per_text_percentile(ids, samples, 1.0) == 1e6
    # a text served under three times is left out, unless every text was
    assert lifecycle.per_text_percentile(ids + [100] * 2, samples + [1e9] * 2, 1.0) == 1e6
    assert lifecycle.per_text_percentile([0, 0, 1], [2.0, 4.0, 5.0], 1.0) == 5.0


@pytest.fixture
def tiny_benchmark(monkeypatch):
    for name, workload in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name, _tiny(workload))
    monkeypatch.setattr(lifecycle, "MIN_ROUNDS", 2)
    monkeypatch.setattr(lifecycle, "LOADS_PER_ROUND", 1)
    monkeypatch.setattr(lifecycle, "WARMUP_REQUESTS", 5)


def _result(capsys, argv):
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_named_metric(name, tiny_benchmark, capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert name in [w["name"] for w in declared["workloads"]]

    base = ["--workload", name, "--seed", "3", "--seconds", "0.2"]
    code, plain = _result(capsys, base + ["--trace", "0"])
    assert code == 0 and plain["correct"] and plain["failed"] == 0
    assert plain["attempted"] >= 1
    for metric in declared["end_to_end"]:
        got = plain["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float) and got["value"] > 0

    code, traced = _result(capsys, base + ["--trace", "1"])
    assert code == 0 and traced["correct"]
    for metric in declared["per_layer"]:
        got = traced["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    if name == "doc_cnn":
        assert layer["kernels.lstm_seq.calls"] == 0
        assert layer["kernels.conv_maxpool.flops"] > 0
    else:
        assert layer["kernels.lstm_seq.calls"] > 0
    if name == "joint_bilstm":
        assert layer["kernels.conv_maxpool.flops"] == 0
        assert layer["kernels.lstm_seq.calls"] == 4
    if name == "tagger_char":
        assert layer["kernels.highway_us"] > 0
    assert abs(layer["trace.serve_reconcile_ratio"] - 1.0) < lifecycle.RECONCILE_TOLERANCE


def test_a_served_mismatch_is_counted_as_failed(tiny_benchmark, capsys, monkeypatch):
    real = lifecycle.graph_json

    def off_by_one(g, res):
        out = real(g, res)
        if out.get("score") is not None:
            out["score"] = float(np.nextafter(np.float32(out["score"]), np.float32(2)))
        return out
    monkeypatch.setattr(lifecycle, "graph_json", off_by_one)
    code, res = _result(capsys, ["--workload", "doc_cnn", "--seed", "3",
                                 "--seconds", "0.1", "--trace", "0"])
    assert code == 1
    assert not res["correct"]
    assert res["failed"] >= 1
