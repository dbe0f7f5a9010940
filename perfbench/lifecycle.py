"""One workload's lifecycle: config -> train -> export -> load -> serve -> eager replay.

Every call into textforge goes through a public module attribute, so a
Tracer installed by spans.instrument sees the same calls an untraced run
makes. Timings are wall clock from time.perf_counter_ns, scaled to a fixed
host speed by calibrate.at_reference_speed.
"""

import json
import math
import os
import resource
import statistics
import time

from textforge import exporter, graph, pipeline, registry, trainer
from textforge.featurizer import Featurizer, FeaturizerSettings

import calibrate
import traffic as traffic_mod
from spans import aggregate
from workloads import Workload, write_task

BLOCKS_PER_WINDOW = 16  # a serve block lasts seconds / this
MIN_ROUNDS = 3          # measurement rounds even when the window is short
LOADS_PER_ROUND = 12    # cold starts timed per round
TRAIN_EVERY = 2         # a one-epoch training run every this many rounds
WARMUP_REQUESTS = 100   # served and replayed untimed before measuring
MARK_EVERY_S = 0.1      # host-speed marks while serving, replaying and training
EAGER_EVERY = 4         # also replay every this many served requests, for timing
# held-out and synthetic texts verify_equivalence checks per head; `textforge
# export` checks 20 of each, too few for export_s to be set by the workload's
# text mix rather than by which 20 texts a seed draws
VERIFY_SAMPLES = 100

_now = time.perf_counter_ns


class NullTracer:
    """Stands in for spans.Tracer when tracing is off."""
    request_id = -1

    def set_phase(self, name):
        pass

    def intern(self, name):
        return 0

    def begin(self, name_id):
        return 0

    def finish(self, i):
        pass


class Tally:
    """Operations attempted and failed, by kind."""

    def __init__(self):
        self.attempted = {}
        self.failed = {}
        self.notes = []

    def record(self, kind: str, ok: bool, note: str):
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        self.failed[kind] = self.failed.get(kind, 0) + (not ok)
        if not ok:
            self.note(note)

    def note(self, text: str):
        if len(self.notes) < 20:
            self.notes.append(text)

    def add(self, kind: str, attempted: int, failed: int):
        self.attempted[kind] = self.attempted.get(kind, 0) + attempted
        self.failed[kind] = self.failed.get(kind, 0) + failed


def percentile(sorted_samples, p: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(math.ceil(p * len(sorted_samples)), 1)
    return sorted_samples[rank - 1]


def graph_json(g, res) -> dict:
    """The prediction JSON Pipeline.predict gives, from one head's graph outputs."""
    labels = g.attrs["labels"]
    if g.attrs["task"] == "word_tagging":
        preds = res["pred"]
        scores = res["scores"]
        tags = [labels[int(i)] for i in preds]
        tag_scores = [float(scores[i, int(preds[i])]) for i in range(len(tags))]
        return {"label": None, "score": None, "tags": tags, "tag_scores": tag_scores}
    pred = int(res["pred"])
    return {"label": labels[pred], "score": float(res["scores"][pred])}


def make_server(heads):
    """Raw text -> prediction JSON over one or more (graph, executor) heads.

    The text is featurized once and fed to every head. For the joint model
    the doc head gives label and score and the word head adds the tags,
    which is the shape of the eager joint prediction.
    """
    g0 = heads[0][0]
    fz = Featurizer(FeaturizerSettings(lowercase=bool(g0.attrs["lowercase"]),
                                       max_chars=int(g0.attrs["max_chars"])))

    def serve(text):
        feats = fz.featurize(text)
        out = None
        for g, ex in heads:
            part = graph_json(g, ex.run_feed(graph.prepare_feed(g, feats)))
            if out is None:
                out = part
            else:
                out["tags"] = part["tags"]
        return json.dumps(out)
    return serve


def _one_epoch(config_text: str) -> str:
    doc = json.loads(config_text)
    (task,) = doc["task"].values()
    task["trainer"]["standard"]["epochs"] = 1
    return json.dumps(doc)


class Lifecycle:
    """Runs each step of the lifecycle on demand and keeps its timings."""

    def __init__(self, workload: Workload, seed: int, workdir: str, tracer):
        self.workload = workload
        self.tracer = tracer
        self.tally = Tally()
        traffic = traffic_mod.generate(workload.spec, seed)
        self.traffic_stats = traffic_mod.request_stats(traffic)
        self.config_text = write_task(workload, traffic, seed, workdir)
        self.rep_config_text = _one_epoch(self.config_text)
        self.train_rows = len(traffic.train_rows)
        self.requests = traffic.requests
        self.next_request = 0
        self.request_id = 0
        self.ckpt = os.path.join(workdir, "model.ckpt")
        self.paths = {head: os.path.join(workdir, "model%s.graph" % ("." + head if head else ""))
                      for head in workload.heads()}
        self.ns = {"setup": [], "epoch": [], "export": [], "load": [], "serve": [], "eager": []}
        self.starts = {kind: [] for kind in self.ns}  # when each sample began, ns
        self.mark_t = []        # when each host-speed mark was taken, ns
        self.mark_ns = []       # its calibrate.sample() time, ns
        self.mark_spent = 0     # wall time spent taking marks so far, ns
        self.text_ids = []      # which request text each serve sample served
        self.eager = None
        self.expected = {}      # request text id -> its eager prediction JSON
        self.serve = None
        self._roots = {kind: tracer.intern(kind + ".request") for kind in ("serve", "eager")}

    def mark(self):
        """Time the fixed reference work: how fast the host runs right now.

        Marks are taken before and after every timed step and every
        MARK_EVERY_S while serving, replaying and training, so each sample
        is bracketed by the host speed around it (calibrate.at_reference_speed).
        The reference work calls no textforge code and so adds no spans.
        """
        t = _now()
        self.mark_t.append(t)
        self.mark_ns.append(calibrate.sample())
        self.mark_spent += _now() - t

    def _begin(self):
        return _now(), self.mark_spent

    def _took(self, kind: str, begun):
        """Record a sample of kind begun at _begin(), less any marks taken inside it."""
        t0, spent = begun
        self.ns[kind].append(_now() - t0 - (self.mark_spent - spent))
        self.starts[kind].append(t0)

    def setup(self, config_text: str):
        """parse_task_config + instantiate_task: read and featurize the TSVs, init."""
        self.tracer.set_phase("setup")
        self.mark()
        begun = self._begin()
        pipe = pipeline.instantiate_task(registry.parse_task_config(config_text))
        self._took("setup", begun)
        self.mark()
        return pipe

    def train(self, pipe, ckpt: str):
        """train() with a checkpoint every epoch; one sample per epoch.

        train() reports each epoch once it is evaluated, so the time between
        two reports is one epoch of batches, its eval and the previous
        epoch's checkpoint write. Marks are taken between batches, from a
        wrapper around this pipeline's train_loss, and left out of the
        epoch's time.
        """
        self.tracer.set_phase("train")
        every = int(MARK_EVERY_S * 1e9)
        self.mark()
        begun = [self._begin()]
        due = [_now() + every]
        train_loss = pipe.train_loss

        def marked_train_loss(batch):
            if _now() >= due[0]:
                self.mark()
                due[0] = _now() + every
            return train_loss(batch)

        def echo(line):
            self._took("epoch", begun[0])
            self.mark()
            due[0] = _now() + every
            begun[0] = self._begin()
        pipe.train_loss = marked_train_loss
        try:
            return trainer.train(pipe, ckpt_path=ckpt, echo=echo)
        finally:
            del pipe.train_loss

    def export(self):
        """export + verify_equivalence + save_graph per head, as `textforge export`."""
        self.tracer.set_phase("export")
        self.mark()
        begun = self._begin()
        graphs = exporter.export_pipeline(self.eager)
        if not isinstance(graphs, dict):
            graphs = {"": graphs}
        for head, g in graphs.items():
            report = exporter.verify_equivalence(self.eager, g, n_samples=VERIFY_SAMPLES,
                                                 seed=self.eager.settings.seed,
                                                 head=head or None)
            graph.save_graph(g, self.paths[head])
            self.tally.record("export", report.argmax_agree and report.max_abs_dev == 0.0,
                              "export %r: argmax_agree=%s max_abs_dev=%g"
                              % (head, report.argmax_agree, report.max_abs_dev))
        self._took("export", begun)
        self.mark()

    def load(self):
        """Serving cold start: load_graph + Executor for every head."""
        self.tracer.set_phase("load")
        self.mark()
        begun = self._begin()
        heads = []
        for head in self.workload.heads():
            g = graph.load_graph(self.paths[head])
            heads.append((g, graph.Executor(g)))
        self._took("load", begun)
        self.mark()
        return heads

    def predict(self, text):
        return json.dumps(self.eager.predict(self.eager.featurizer.featurize(text)))

    def _request(self, kind: str, fn, text):
        """One closed-loop request; a request that raises gets output None."""
        tracer = self.tracer
        tracer.request_id = self.request_id
        self.request_id += 1
        begun = self._begin()
        span = tracer.begin(self._roots[kind])
        try:
            out = fn(text)
        except Exception as exc:  # a failed request is counted, not fatal
            out = None
            self.tally.note("%s %r raised %r" % (kind, text, exc))
        finally:
            tracer.finish(span)
        self._took(kind, begun)
        tracer.request_id = -1
        return out

    def block(self, seconds: float):
        """Serve requests for `seconds` with one client, then replay eagerly
        each text served for the first time, and compare every served
        prediction JSON with its text's eager one exactly.

        Eager prediction is deterministic, so one eager run per text checks
        every later request of that text too; serving gets the time that
        replaying repeats would take. Every EAGER_EVERY-th request is
        replayed again all the same, so that eager_p50_ms is sampled over
        the whole window, and its result must equal the first.
        """
        ids, served = [], []
        self.tracer.set_phase("serve")
        every = int(MARK_EVERY_S * 1e9)
        deadline = _now() + int(seconds * 1e9)
        next_mark = 0
        while not ids or _now() < deadline:
            if _now() >= next_mark:
                self.mark()
                next_mark = _now() + every
            ids.append(self.next_request % len(self.requests))
            self.next_request += 1
            served.append(self._request("serve", self.serve, self.requests[ids[-1]]))
        self.text_ids.extend(ids)
        self.mark()
        self.tracer.set_phase("eager")
        next_mark = _now() + every
        bad = 0
        for k, i in enumerate(ids):
            first = i not in self.expected
            if not first and k % EAGER_EVERY:
                continue
            if _now() >= next_mark:
                self.mark()
                next_mark = _now() + every
            out = self._request("eager", self.predict, self.requests[i])
            if first:
                self.expected[i] = out
            elif out != self.expected[i]:
                bad += 1
                self.tally.note("%r: eager gave %s, then %s"
                                % (self.requests[i], self.expected[i], out))
        self.mark()
        self.tracer.set_phase("idle")
        for i, got in zip(ids, served):
            want = self.expected[i]
            if got is None or got != want:
                bad += 1
                self.tally.note("%r: served %s, eager %s" % (self.requests[i], got, want))
        self.tally.add("serve", len(ids), bad)


def per_text_percentile(text_ids, samples, p: float):
    """The p-th percentile over request texts of each text's median sample.

    Every text in the request pool is served three or more times in a run,
    seconds apart, so a text's median is its latency without a momentary
    host stall on one of its requests, and the tail is set by the slowest
    inputs. Texts served fewer than three times (the last pool cycle of a
    short run) are left out, as their median may carry a stall; unless no
    text was served three times.
    """
    by_text = {}
    for i, x in zip(text_ids, samples):
        by_text.setdefault(i, []).append(x)
    medians = [statistics.median(v) for v in by_text.values() if len(v) >= 3]
    return percentile(sorted(medians or [statistics.median(v) for v in by_text.values()]), p)


def timings(ns: dict, train_rows: int, text_ids) -> dict:
    """The timed end-to-end metrics from per-kind samples in ns."""
    return {
        "setup_s": statistics.median(ns["setup"]) / 1e9,
        "train_examples_per_s": train_rows / (statistics.median(ns["epoch"]) / 1e9),
        "export_s": statistics.median(ns["export"]) / 1e9,
        "load_ms": statistics.median(ns["load"]) / 1e6,
        "serve_p50_ms": percentile(sorted(ns["serve"]), 0.50) / 1e6,
        "serve_p99_ms": per_text_percentile(text_ids, ns["serve"], 0.99) / 1e6,
        "eager_p50_ms": percentile(sorted(ns["eager"]), 0.50) / 1e6,
    }


def run(workload: Workload, seed: int, seconds: float, workdir: str, tracer=None) -> dict:
    """The whole lifecycle once, then `seconds` of interleaved measurement.

    The measurement loop repeats every timed step in rounds (serve block,
    eager replay, cold starts, an export, a setup, a one-epoch training
    run), so each metric is sampled across the whole window and a slow
    stretch of the machine lands on all of them alike instead of on one.

    Every timed sample is scaled to the reference host speed by the
    speed marks around it (calibrate.at_reference_speed); the timings are
    medians of the scaled samples, or percentiles for serving latency. The
    same figures unscaled are kept as end_to_end_wall.
    """
    life = Lifecycle(workload, seed, workdir, tracer or NullTracer())

    pipe = life.setup(life.config_text)
    result = life.train(pipe, life.ckpt)
    epochs_run = len(result.history)
    life.tally.record("train", result.best_score >= workload.score_floor,
                      "eval_score %.4f below floor %.2f"
                      % (result.best_score, workload.score_floor))
    del pipe
    life.eager = pipeline.restore_pipeline(trainer.load_checkpoint(life.ckpt), use_best=True)
    life.export()
    life.serve = make_server(life.load())

    life.tracer.set_phase("warmup")
    for text in life.requests[:WARMUP_REQUESTS]:
        life.serve(text)
        life.predict(text)

    block_s = seconds / BLOCKS_PER_WINDOW
    rep_ckpt = os.path.join(workdir, "rep.ckpt")
    rounds = train_reps = 0
    deadline = _now() + int(seconds * 1e9)
    while rounds < MIN_ROUNDS or _now() < deadline:
        life.block(block_s)
        for _ in range(LOADS_PER_ROUND):
            life.load()
        life.export()
        rep = life.setup(life.rep_config_text)
        if rounds % TRAIN_EVERY == 0:
            life.train(rep, rep_ckpt)
            train_reps += 1
        del rep
        rounds += 1
    life.tracer.set_phase("done")

    ns = life.ns
    scaled = {kind: calibrate.at_reference_speed(life.starts[kind], ns[kind],
                                                 life.mark_t, life.mark_ns).tolist()
              for kind in ns}
    e2e = timings(scaled, life.train_rows, life.text_ids)
    e2e.update({
        "eval_score": float(result.best_score),
        "graph_bytes": float(sum(os.path.getsize(p) for p in life.paths.values())),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    tally = life.tally
    attempted = sum(tally.attempted.values())
    failed = sum(tally.failed.values())
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "end_to_end": e2e,
        "attempted": attempted,
        "failed": failed,
        "by_kind": {k: {"attempted": tally.attempted[k], "failed": tally.failed[k]}
                    for k in tally.attempted},
        "failures": tally.notes,
        "counts": {
            "rounds": rounds, "setup_reps": len(ns["setup"]),
            "train_epochs": len(ns["epoch"]), "train_reps": train_reps,
            "epochs_run": epochs_run, "train_examples": life.train_rows * len(ns["epoch"]),
            "export_reps": len(ns["export"]), "load_reps": len(ns["load"]),
            "warmup_requests": WARMUP_REQUESTS, "serve_requests": len(ns["serve"]),
            "eager_requests": len(ns["eager"]), "serve_time_ns": sum(ns["serve"]),
            "speed_marks": len(life.mark_ns),
            "checkpoint_bytes": os.path.getsize(life.ckpt),
        },
        "traffic": life.traffic_stats,
        "end_to_end_wall": timings(ns, life.train_rows, life.text_ids),
        "samples_ns": ns,
        "sample_starts_ns": life.starts,
        "speed_marks_ns": {"t": life.mark_t, "reference_work": life.mark_ns},
        "machine_speed": {"reference_work_median_ms": statistics.median(life.mark_ns) / 1e6,
                          "reference_work_min_ms": min(life.mark_ns) / 1e6,
                          "reference_work_max_ms": max(life.mark_ns) / 1e6,
                          "samples": len(life.mark_ns)},
    }


# (metric, phase, source, key, unit). Sources: "self" is span self time,
# "calls" the number of spans, "count" a counter the tracer kept. A unit
# ending in /req divides by the phase's timed requests, /ex by training
# examples, /epoch by training epochs; any other unit is per repetition of
# the phase.
LAYER_METRICS = (
    ("registry.parse_task_config_ms", "setup", "self", "registry.parse_task_config", "ms"),
    ("data_handler.load_tsv_ms", "setup", "self", "data_handler.load_tsv", "ms"),
    ("tensor.backward_ms", "train", "self", "tensor.backward", "ms/epoch"),
    ("model_zoo.forward_ms", "train", "self", "model_zoo.forward", "ms/epoch"),
    ("trainer.optimizer_step_ms", "train", "self", "trainer.optimizer_step", "ms/epoch"),
    ("data_handler.make_batches_ms", "train", "self", "data_handler.make_batches", "ms/epoch"),
    ("pipeline.evaluate_ms", "train", "self", "pipeline.evaluate", "ms/epoch"),
    ("trainer.save_checkpoint_ms", "train", "self", "trainer.save_checkpoint", "ms/epoch"),
    ("binio.encode_ms", "train", "self", "binio.encode", "ms/epoch"),
    ("kernels.lstm_seq_backward_us", "train", "self", "kernels.lstm_seq_backward", "us/ex"),
    ("kernels.conv_maxpool_backward_us", "train", "self", "kernels.conv_maxpool_backward",
     "us/ex"),
    ("exporter.export_pipeline_ms", "export", "self", "exporter.export_pipeline", "ms"),
    ("exporter.verify_equivalence_ms", "export", "self", "exporter.verify_equivalence", "ms"),
    ("graph.save_graph_ms", "export", "self", "graph.save_graph", "ms"),
    ("graph.load_graph_ms", "load", "self", "graph.load_graph", "ms"),
    ("binio.decode_ms", "load", "self", "binio.decode", "ms"),
    ("graph.executor_init_ms", "load", "self", "graph.executor_init", "ms"),
    ("featurizer.featurize_us", "serve", "self", "featurizer.featurize", "us/req"),
    ("graph.prepare_feed_us", "serve", "self", "graph.prepare_feed", "us/req"),
    ("graph.run_feed_us", "serve", "self", "graph.run_feed", "us/req"),
    ("graph.ops_per_request", "serve", "count", "graph.ops", "ops/req"),
    ("vocab.lookup.calls_per_request", "serve", "count", "vocab.lookup.calls", "calls/req"),
    ("kernels.lstm_seq_us", "serve", "self", "kernels.lstm_seq", "us/req"),
    ("kernels.lstm_seq.calls", "serve", "calls", "kernels.lstm_seq", "calls/req"),
    ("kernels.lstm_seq.flops", "serve", "count", "kernels.lstm_seq.flops", "flop/req"),
    ("kernels.sigmoid_us", "serve", "self", "kernels.sigmoid", "us/req"),
    ("kernels.self_attention_us", "serve", "self", "kernels.self_attention", "us/req"),
    ("kernels.conv_maxpool_us", "serve", "self", "kernels.conv_maxpool", "us/req"),
    ("kernels.conv_maxpool.flops", "serve", "count", "kernels.conv_maxpool.flops", "flop/req"),
    ("kernels.highway_us", "serve", "self", "kernels.highway", "us/req"),
    ("pipeline.predict_us", "eager", "self", "pipeline.predict", "us/req"),
    ("model_zoo.eager_forward_us", "eager", "self", "model_zoo.forward", "us/req"),
)

RECONCILE_TOLERANCE = 0.05


def per_layer(tracer, result: dict) -> dict:
    """Per-layer metrics from a traced run, as {name: (value, unit)}.

    Also checks that the self times of all spans inside timed serve
    requests add up to the request times measured around them.
    """
    totals, calls, selfs, arrays = aggregate(tracer)
    counts = {(tracer.names[ph], key): v for (ph, key), v in tracer.counts.items()}
    c = result["counts"]
    per_phase = {"setup": c["setup_reps"], "export": c["export_reps"], "load": c["load_reps"]}
    per_unit = {"req": {"serve": c["serve_requests"], "eager": c["eager_requests"]},
                "ex": {"train": c["train_examples"]}, "epoch": {"train": c["train_epochs"]}}
    out = {}
    for name, phase, source, key, unit in LAYER_METRICS:
        if source == "self":
            value = totals.get((phase, key), 0) / (1e6 if unit.startswith("ms") else 1e3)
        elif source == "calls":
            value = calls.get((phase, key), 0)
        else:
            value = counts.get((phase, key), 0)
        per = unit.rpartition("/")[2]
        value /= per_unit[per][phase] if per in per_unit else per_phase[phase]
        out[name] = (value, unit)
    out["trainer.checkpoint_bytes"] = (float(c["checkpoint_bytes"]), "B")

    serve_phase = tracer.intern("serve")
    in_serve = arrays["phase"] == serve_phase
    ratio = float(selfs[in_serve].sum()) / c["serve_time_ns"]
    out["trace.serve_reconcile_ratio"] = (ratio, "ratio")
    out["trace.spans_per_request"] = (int(in_serve.sum()) / c["serve_requests"], "spans/req")
    return out
