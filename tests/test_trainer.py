"""Optimizer arithmetic, the training loop's selection logic, checkpoints."""

import json
import os
import struct
import tempfile
import zlib
from dataclasses import asdict, fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpora
from test_exporter import model_configs
from textforge import binio, cli, ops
from textforge import trainer as trainer_module
from textforge.data_handler import VOCAB_NAMES
from textforge.errors import (CorruptFile, EmptySplit, IncompatibleShare, NoGradient,
                              NonFiniteLoss, NonFiniteScores, VersionMismatch)
from textforge.exporter import export_pipeline
from textforge.graph import serialize
from textforge.pipeline import instantiate_task, restore_pipeline
from textforge.registry import parse_task_config
from textforge.tensor import Parameter
from textforge.trainer import (CKPT_MAGIC, CKPT_VERSION, SGD, Adam, EpochRecord,
                               derive_rng, load_checkpoint, save_checkpoint, train)
from textforge.vocab import Vocabulary

F32 = np.float32


def make_param(value):
    return Parameter(np.array(value, dtype=F32))


class TestSGD:
    def test_update_rule_exact(self):
        p = make_param([1.0])
        p.grad = np.array([2.0], dtype=F32)
        SGD({"p": p}, lr=0.1).step()
        # 1 - 0.1 * 2 in float32 rounds to the float32 nearest of 0.8
        assert p.data[0] == np.float32(0.8)
        assert p.grad is None

    def test_lr_zero_is_identity(self):
        p = make_param([3.0, -1.0])
        before = p.data.copy()
        p.grad = np.ones(2, dtype=F32)
        SGD({"p": p}, lr=0.0).step()
        assert np.array_equal(p.data, before)

    def test_skips_params_without_grad(self):
        live = make_param([1.0])
        idle = make_param([5.0])
        live.grad = np.array([1.0], dtype=F32)
        SGD({"live": live, "idle": idle}, lr=0.1).step()
        assert idle.data[0] == np.float32(5.0)
        assert live.data[0] != np.float32(1.0)

    def test_no_gradient_anywhere(self):
        p = make_param([1.0])
        with pytest.raises(NoGradient):
            SGD({"p": p}, lr=0.1).step()

    def test_keeps_no_state(self):
        opt = SGD({"p": make_param([1.0])}, lr=0.1)
        assert opt.state_payload() == {}
        opt.load_state({})
        moments = {"p": {"m": np.zeros(1, F32), "v": np.zeros(1, F32), "t": 1}}
        with pytest.raises(CorruptFile, match="SGD keeps none"):
            opt.load_state(moments)


class TestAdam:
    def test_first_step_moves_by_about_lr(self):
        p = make_param([1.0])
        p.grad = np.array([2.0], dtype=F32)
        Adam({"p": p}, lr=0.001).step()
        # bias correction makes the first step -lr * g / (|g| + eps)
        assert p.data[0] == pytest.approx(1.0 - 0.001, abs=1e-6)
        assert p.grad is None

    def test_direction_follows_sign_of_grad(self):
        p = make_param([1.0, 1.0])
        p.grad = np.array([0.5, -0.5], dtype=F32)
        Adam({"p": p}, lr=0.01).step()
        assert p.data[0] < 1.0 < p.data[1]

    def test_state_round_trip_preserves_trajectory(self):
        def run_steps(opt, p, grads):
            for g in grads:
                p.grad = np.array([g], dtype=F32)
                opt.step()

        pa = make_param([1.0])
        oa = Adam({"p": pa}, lr=0.01)
        run_steps(oa, pa, [1.0, -0.5])
        state = binio.decode(binio.encode(oa.state_payload()))
        # the state is the moments alone; the settings are the config's
        assert set(state) == {"p"} and set(state["p"]) == {"m", "v", "t"}

        pb = make_param([float(pa.data[0])])
        ob = Adam({"p": pb}, lr=0.01)
        ob.load_state(state)
        run_steps(oa, pa, [0.25])
        run_steps(ob, pb, [0.25])
        assert pa.data[0] == pb.data[0]

    def test_loaded_state_keeps_the_constructed_settings(self):
        p = make_param([1.0])
        donor = Adam({"p": p}, lr=0.01)
        p.grad = np.array([1.0], dtype=F32)
        donor.step()
        opt = Adam({"p": make_param([1.0])}, lr=0.5, beta1=0.8, beta2=0.99, eps=1e-6)
        opt.load_state(donor.state_payload())
        assert (opt.lr, opt.beta1, opt.beta2, opt.eps) == (0.5, 0.8, 0.99, 1e-6)

    def test_no_gradient_anywhere(self):
        with pytest.raises(NoGradient):
            Adam({"p": make_param([1.0])}).step()


class StubPipe:
    """Minimal training-loop host: quadratic loss, scripted eval scores."""

    def __init__(self, scores, epochs, patience=0):
        self.param = make_param([4.0])
        self.model = SimpleNamespace(
            named_parameters=lambda: {"p": self.param})
        self.optimizer = SGD({"p": self.param}, lr=0.1)
        self.settings = SimpleNamespace(epochs=epochs, patience=patience, seed=0)
        self.scores = list(scores)
        self.calls = 0

    def train_batches(self, epoch):
        return [epoch]

    def train_loss(self, batch):
        return ops.reshape(ops.mul(self.param, self.param), ())

    def evaluate(self):
        score = self.scores[self.calls]
        self.calls += 1
        return score, {"score": score}


class TestTrainLoop:
    def test_keeps_best_epoch_params(self):
        pipe = StubPipe(scores=[0.5, 0.9, 0.3], epochs=3)
        snapshots = []
        orig = pipe.evaluate
        def spying_evaluate():
            snapshots.append(pipe.param.data.copy())
            return orig()
        pipe.evaluate = spying_evaluate
        result = train(pipe)
        assert result.best_epoch == 1
        assert result.best_score == 0.9
        assert not result.stopped_early
        assert [r.epoch for r in result.history] == [0, 1, 2]
        # model ends at the epoch-1 snapshot, not the final one
        assert pipe.param.data[0] == snapshots[1][0]
        assert pipe.param.data[0] != snapshots[2][0]

    def test_patience_stops_early(self):
        pipe = StubPipe(scores=[0.5, 0.9, 0.7, 0.6, 0.6], epochs=5, patience=2)
        result = train(pipe)
        assert result.stopped_early
        assert [r.epoch for r in result.history] == [0, 1, 2, 3]
        assert result.best_epoch == 1

    def test_patience_zero_never_stops(self):
        pipe = StubPipe(scores=[0.9, 0.1, 0.1, 0.1], epochs=4, patience=0)
        result = train(pipe)
        assert not result.stopped_early
        assert len(result.history) == 4

    def test_ties_do_not_replace_best(self):
        pipe = StubPipe(scores=[0.7, 0.7, 0.7], epochs=3)
        result = train(pipe)
        assert result.best_epoch == 0

    def test_empty_batches_rejected(self):
        pipe = StubPipe(scores=[0.5], epochs=1)
        pipe.train_batches = lambda epoch: []
        with pytest.raises(EmptySplit):
            train(pipe)

    def test_payload_shape(self):
        result = train(StubPipe(scores=[0.5, 0.6], epochs=2))
        payload = result.payload()
        assert payload["epochs_run"] == 2
        assert payload["best_epoch"] == 1
        assert payload["best_score"] == 0.6
        assert payload["stopped_early"] is False
        assert payload["history"][0]["metrics"] == {"score": 0.5}

    def test_echo_receives_formatted_lines(self):
        lines = []
        train(StubPipe(scores=[0.5], epochs=1), echo=lines.append)
        assert len(lines) == 1
        assert lines[0].startswith("epoch 0:")
        assert "score=0.5000" in lines[0]


def ruled(scores, epochs, patience):
    """(epochs run, best epoch, stopped early) of a run whose epochs score
    scores: the best epoch is the first of the highest score, and a run with
    patience above 0 stops once that many epochs follow its best."""
    for n in range(1, epochs + 1):
        best = scores.index(max(scores[:n]))
        stopped = 0 < patience <= n - 1 - best
        if stopped or n == epochs:
            return n, best, stopped


@settings(max_examples=200, deadline=None)
@given(scores=st.lists(st.sampled_from([0.25, 0.5, 0.75]), min_size=6, max_size=6),
       epochs=st.integers(1, 6), patience=st.integers(0, 3), data=st.data())
def test_a_run_and_its_resume_follow_the_two_rules(scores, epochs, patience, data):
    straight = StubPipe(scores, epochs, patience)
    params, evaluate = [], straight.evaluate
    straight.evaluate = lambda: params.append(straight.param.data.copy()) or evaluate()
    want = train(straight)
    n, best, stopped = ruled(scores, epochs, patience)
    assert [rec.epoch for rec in want.history] == list(range(n))
    assert (want.best_epoch, want.best_score, want.stopped_early) == (best, scores[best], stopped)
    assert np.array_equal(straight.param.data, params[best])

    # cut after k epochs, or where the run stopped or finished before that
    k = min(data.draw(st.integers(1, epochs), label="epochs before the cut"), n)
    kept = scores.index(max(scores[:k]))
    payload = {"history": [asdict(rec) for rec in want.history[:k]],
               "params": {"p": params[k - 1]}, "best_params": {"p": params[kept]},
               "optimizer": {}}
    resumed = StubPipe(scores, epochs, patience)
    resumed.calls = k
    assert train(resumed, resume=payload) == want
    assert np.array_equal(resumed.param.data, params[best])


def build_pipe(tmp_path, epochs, subdir, seed=0):
    d = tmp_path / subdir
    d.mkdir(exist_ok=True)
    cfg = parse_task_config(json.dumps(corpora.doc_config(
        str(d), n_train=24, n_eval=8, seed=seed, epochs=epochs, batch_size=8)))
    return instantiate_task(cfg)


class TestNonFiniteLoss:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_stops_before_the_bad_batch_updates(self, tmp_path, bad):
        pipe = build_pipe(tmp_path, epochs=3, subdir="run")
        ckpt = str(tmp_path / "run" / "model.ckpt")
        seen = {}
        train_loss = pipe.train_loss

        def poisoned(batch):
            seen["calls"] = seen.get("calls", 0) + 1
            loss = train_loss(batch)
            if seen["calls"] == 5:  # epoch 1, batch 1 (three batches an epoch)
                with open(ckpt, "rb") as fh:
                    seen["ckpt"] = fh.read()
                seen["params"] = {n: p.data.copy()
                                  for n, p in pipe.model.named_parameters().items()}
                seen["moments"] = {n: st[0].copy() for n, st in pipe.optimizer._moments.items()}
                return ops.mul_scalar(loss, bad)
            return loss
        pipe.train_loss = poisoned

        with pytest.raises(NonFiniteLoss, match="epoch 1 batch 1"):
            train(pipe, ckpt_path=ckpt)
        with open(ckpt, "rb") as fh:
            assert fh.read() == seen["ckpt"]
        for name, p in pipe.model.named_parameters().items():
            assert np.array_equal(p.data, seen["params"][name]), name
        for name, st in pipe.optimizer._moments.items():
            assert np.array_equal(st[0], seen["moments"][name]), name


@pytest.mark.parametrize("build", [corpora.doc_config, corpora.word_config,
                                   corpora.joint_config])
def test_evaluation_refuses_scores_that_are_not_finite(tmp_path, build):
    cfg = build(str(tmp_path), n_train=8, n_eval=4)
    pipe = instantiate_task(parse_task_config(json.dumps(cfg)))
    for name, p in pipe.model.named_parameters().items():
        if name.endswith("decoder.b0"):  # every head's
            p.data = np.full_like(p.data, np.nan)
    with pytest.raises(NonFiniteScores, match="not finite"):
        pipe.evaluate()


class TestResume:
    def test_resume_matches_uninterrupted(self, tmp_path):
        straight = build_pipe(tmp_path, epochs=4, subdir="a")
        res_straight = train(straight)

        short = build_pipe(tmp_path, epochs=2, subdir="b")
        ckpt = str(tmp_path / "b" / "model.ckpt")
        train(short, ckpt_path=ckpt)
        payload = load_checkpoint(ckpt)
        resumed = build_pipe(tmp_path, epochs=4, subdir="b")
        res_resumed = train(resumed, resume=payload)

        hist_a = [(r.epoch, r.train_loss, r.score) for r in res_straight.history]
        hist_b = [(r.epoch, r.train_loss, r.score) for r in res_resumed.history]
        assert hist_a == hist_b
        named_a = straight.model.named_parameters()
        named_b = resumed.model.named_parameters()
        for name, pa in named_a.items():
            assert np.array_equal(pa.data, named_b[name].data), name

    def test_joint_resume_writes_the_uninterrupted_checkpoint(self, tmp_path):
        # both runs read the same data files, so the configs match byte for byte
        def joint_pipe():
            cfg = corpora.joint_config(str(tmp_path), n_train=24, n_eval=8, epochs=3)
            return instantiate_task(parse_task_config(json.dumps(cfg)))

        straight = str(tmp_path / "straight.ckpt")
        train(joint_pipe(), ckpt_path=straight)

        cut = str(tmp_path / "cut.ckpt")
        interrupted = joint_pipe()
        evaluate, calls = interrupted.evaluate, []

        def evaluate_once():
            calls.append(1)
            if len(calls) > 1:
                raise KeyboardInterrupt  # the run is cut after its first epoch
            return evaluate()
        interrupted.evaluate = evaluate_once
        with pytest.raises(KeyboardInterrupt):
            train(interrupted, ckpt_path=cut)
        payload = load_checkpoint(cut)
        assert len(payload["history"]) == 1
        # the shared trunk is stored once, under the doc head
        for field in ("params", "best_params"):
            assert not [n for n in payload[field]
                        if n.startswith(("word.embedding.", "word.representation.bilstm."))]
            assert "doc.representation.bilstm.fwd.w_ih" in payload[field]
        train(joint_pipe(), ckpt_path=cut, resume=payload)
        assert open(cut, "rb").read() == open(straight, "rb").read()


def assert_reproduces(result, ckpt_path, seed):
    """The checkpoint at ckpt_path holds result's run: its history, and from
    that history the best epoch and score the loop chose, and the seed in its
    config snapshot."""
    payload = load_checkpoint(ckpt_path)
    assert payload["history"] == [asdict(rec) for rec in result.history]
    scores = [rec["score"] for rec in payload["history"]]
    assert result.best_epoch == scores.index(max(scores))
    assert result.best_score == max(scores)
    (task,) = json.loads(payload["config"])["task"].values()
    assert task["trainer"]["standard"]["seed"] == seed
    assert restore_pipeline(payload).settings.seed == seed


class TestCheckpointReproducesItsRun:
    def test_a_doc_run_that_stops_early(self, tmp_path):
        # an lr far below every weight's float32 spacing keeps every epoch's
        # score, so patience 1 stops after epoch 1 with epoch 0 the best
        cfg = corpora.doc_config(str(tmp_path), n_train=24, n_eval=8, seed=3, epochs=4,
                                 lr=1e-30, batch_size=8)
        cfg["task"]["doc_classification"]["trainer"]["standard"]["patience"] = 1
        ckpt = str(tmp_path / "model.ckpt")
        result = train(instantiate_task(parse_task_config(json.dumps(cfg))), ckpt_path=ckpt)
        assert result.stopped_early and len(result.history) == 2
        assert result.best_epoch == 0
        assert_reproduces(result, ckpt, seed=3)

    def test_an_interrupted_joint_run_resumed_to_the_end(self, tmp_path):
        def joint_pipe():
            cfg = corpora.joint_config(str(tmp_path), n_train=24, n_eval=8, seed=2, epochs=3)
            return instantiate_task(parse_task_config(json.dumps(cfg)))

        ckpt = str(tmp_path / "model.ckpt")
        interrupted = joint_pipe()
        evaluate, calls = interrupted.evaluate, []

        def evaluate_twice():
            calls.append(1)
            if len(calls) > 2:
                raise KeyboardInterrupt  # the run is cut in its last epoch
            return evaluate()
        interrupted.evaluate = evaluate_twice
        with pytest.raises(KeyboardInterrupt):
            train(interrupted, ckpt_path=ckpt)
        result = train(joint_pipe(), ckpt_path=ckpt, resume=load_checkpoint(ckpt))
        assert [rec.epoch for rec in result.history] == [0, 1, 2]
        assert_reproduces(result, ckpt, seed=2)

    def test_a_finished_run_resumed_with_nothing_left(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TEXTFORGE_SEED", "7")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(corpora.doc_config(
            str(tmp_path), n_train=24, n_eval=8, epochs=2, batch_size=8)), encoding="utf-8")
        results = []

        def recording_train(*args, **kwargs):
            results.append(train(*args, **kwargs))
            return results[-1]
        monkeypatch.setattr(cli, "train", recording_train)
        first_ckpt = str(tmp_path / "run1" / "model.ckpt")
        for out, extra in (("run1", []), ("run2", ["--resume", first_ckpt])):
            assert cli.main(["train", "--config", str(cfg_path),
                             "--out-dir", str(tmp_path / out)] + extra) == 0
        first, resumed = results
        assert resumed.history == first.history
        for out, result in (("run1", first), ("run2", resumed)):
            assert_reproduces(result, str(tmp_path / out / "model.ckpt"), seed=7)


class TestCheckpointFiles:
    def _checkpoint(self, tmp_path):
        pipe = build_pipe(tmp_path, epochs=1, subdir="ck")
        ckpt = str(tmp_path / "ck" / "model.ckpt")
        train(pipe, ckpt_path=ckpt)
        return ckpt

    def test_save_load_save_is_byte_identical(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        payload = load_checkpoint(ckpt)
        again = str(tmp_path / "again.ckpt")
        save_checkpoint(again, payload)
        first = open(ckpt, "rb").read()
        second = open(again, "rb").read()
        assert first == second

    def test_flipped_byte_rejected(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        blob = bytearray(open(ckpt, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(ckpt, "wb").write(bytes(blob))
        with pytest.raises(CorruptFile):
            load_checkpoint(ckpt)

    def test_truncation_rejected(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        blob = open(ckpt, "rb").read()
        open(ckpt, "wb").write(blob[:len(blob) - 7])
        with pytest.raises(CorruptFile):
            load_checkpoint(ckpt)

    def test_wrong_magic_rejected(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        blob = open(ckpt, "rb").read()
        open(ckpt, "wb").write(b"NOPE" + blob[4:])
        with pytest.raises(CorruptFile):
            load_checkpoint(ckpt)

    def test_future_version_rejected(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        blob = bytearray(open(ckpt, "rb").read())
        blob[4:8] = struct.pack("<I", CKPT_VERSION + 1)
        open(ckpt, "wb").write(bytes(blob))
        with pytest.raises(VersionMismatch):
            load_checkpoint(ckpt)

    def test_wrong_container_rejected(self, tmp_path):
        path = str(tmp_path / "not_ckpt.bin")
        binio.write_file(path, binio.pack_container(CKPT_MAGIC, CKPT_VERSION,
                                                    {"container": "module"}))
        with pytest.raises(CorruptFile):
            load_checkpoint(path)
        binio.write_file(path, binio.pack_container(CKPT_MAGIC, CKPT_VERSION, [1, 2]))
        with pytest.raises(CorruptFile, match="checkpoint is not a mapping"):
            load_checkpoint(path)

    @pytest.mark.parametrize("failure", [OSError("disk full"), KeyboardInterrupt()])
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch, failure):
        ckpt = self._checkpoint(tmp_path)
        with open(ckpt, "rb") as handle:
            before = handle.read()
        payload = load_checkpoint(ckpt)
        payload["history"].append(dict(payload["history"][0], epoch=1))

        def fail(fd):
            raise failure
        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(type(failure)):
            save_checkpoint(ckpt, payload)
        monkeypatch.undo()
        with open(ckpt, "rb") as handle:
            assert handle.read() == before
        assert len(load_checkpoint(ckpt)["history"]) == 1
        assert not [name for name in os.listdir(os.path.dirname(ckpt))
                    if name.endswith(".tmp")]

    def test_deep_nesting_rejected(self, tmp_path):
        def nested(depth):
            header = b"[" * depth + b"null" + b"]" * depth
            return struct.pack("<I", len(header)) + header
        assert binio.decode(nested(binio.MAX_DEPTH)) is not None
        with pytest.raises(CorruptFile, match="nested"):
            binio.decode(nested(binio.MAX_DEPTH + 1))
        with pytest.raises(CorruptFile, match="nested"):
            binio.decode(nested(5000))
        body = nested(5000)
        path = str(tmp_path / "deep.ckpt")
        with open(path, "wb") as handle:
            handle.write(CKPT_MAGIC + struct.pack("<II", CKPT_VERSION, zlib.crc32(body)) + body)
        with pytest.raises(CorruptFile, match="nested"):
            load_checkpoint(path)

    def test_payload_contents(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        payload = load_checkpoint(ckpt)
        assert list(payload) == ["config", "history", "vocabs", "labels", "params",
                                 "best_params", "optimizer"]
        assert len(payload["history"]) == 1
        assert set(payload["params"]) == set(payload["best_params"])
        # Adam's state is its moments, one entry per parameter
        assert set(payload["optimizer"]) == set(payload["params"])


class TestSeedStreams:
    def test_derivation_is_stable_and_keyed(self):
        a = derive_rng(7, 1, 0).integers(0, 1 << 30, size=4)
        b = derive_rng(7, 1, 0).integers(0, 1 << 30, size=4)
        c = derive_rng(7, 1, 1).integers(0, 1 << 30, size=4)
        d = derive_rng(8, 1, 0).integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


def _both_param_maps(mutate):
    def apply(payload):
        for key in ("params", "best_params"):
            mutate(payload[key])
    return apply


def _replace_first(make):
    def mutate(params):
        name = next(iter(params))
        params[name] = make(params[name])
    return mutate


def _with_first(value):
    """A copy of an array with its first entry set to value."""
    def make(a):
        a = a.copy()
        a.flat[0] = value
        return a
    return make


def _first_record(mutate):
    return lambda payload: mutate(payload["history"][0])


# CRC-valid checkpoints with one malformed field, and the error text each gives
MALFORMED_CHECKPOINTS = {
    "no_vocabs": (lambda p: p.pop("vocabs"), "'vocabs'"),
    "stray_seed": (lambda p: p.update(seed=0), "'seed'"),
    "history_entry_not_a_record": (lambda p: p["history"].append(1), "'history'"),
    "history_empty": (lambda p: p.update(history=[]), "'history'"),
    "history_epochs_reversed": (lambda p: p["history"].reverse(), "'history'"),
    "history_starts_at_epoch_1": (lambda p: [rec.update(epoch=rec["epoch"] + 1)
                                             for rec in p["history"]], "'history'"),
    "history_score_nan": (_first_record(lambda r: r.update(score=float("nan"))), "'history'"),
    "history_score_inf": (_first_record(lambda r: r.update(score=float("inf"))), "'history'"),
    "history_epoch_a_float": (_first_record(lambda r: r.update(epoch=0.0)), "'history'"),
    "history_train_loss_a_string": (_first_record(lambda r: r.update(train_loss="oops")),
                                    "'history'"),
    "history_score_a_bool": (_first_record(lambda r: r.update(score=True)), "'history'"),
    "history_metrics_a_list": (_first_record(lambda r: r.update(metrics=[])), "'history'"),
    "history_metric_a_string": (_first_record(lambda r: r["metrics"].update(
        {next(iter(r["metrics"])): "0.5"})), "'history'"),
    "history_train_loss_nan": (_first_record(lambda r: r.update(train_loss=float("nan"))),
                               "'history'"),
    "history_train_loss_inf": (_first_record(lambda r: r.update(train_loss=float("inf"))),
                               "'history'"),
    "history_metric_nan": (_first_record(lambda r: r["metrics"].update(
        {next(iter(r["metrics"])): float("nan")})), "'history'"),
    "history_metric_minus_inf": (_first_record(lambda r: r["metrics"].update(
        {next(iter(r["metrics"])): float("-inf")})), "'history'"),
    "duplicate_vocab_entry": (lambda p: p["vocabs"]["token"].append(p["vocabs"]["token"][2]),
                              "'vocabs'"),
    "vocab_table_unknown": (lambda p: p["vocabs"].update(ghost=["<pad>", "<unk>"]),
                            "'vocabs'"),
    "doc_labels_a_string": (lambda p: p["labels"].update(doc="abc"), "'labels'"),
    "labels_kind_unknown": (lambda p: p["labels"].update(intent=[]), "'labels'"),
    # a doc task predicts doc labels alone
    "word_labels_in_a_doc_task": (lambda p: p["labels"].update(word=["ghost"]), "'labels'"),
    "doc_labels_empty": (lambda p: p["labels"].update(doc=[]), "'labels'"),
    # as many labels as classes, one named twice
    "doc_label_repeated": (lambda p: p["labels"].update(
        doc=p["labels"]["doc"][:1] * 2 + p["labels"]["doc"][2:]), "'labels'"),
    "optimizer_a_list": (lambda p: p.update(optimizer=[]), "'optimizer'"),
    "missing_param": (_both_param_maps(lambda d: d.pop(next(iter(d)))), "parameter names"),
    "extra_param": (_both_param_maps(lambda d: d.update(ghost=np.zeros(2, dtype=F32))),
                    "parameter names"),
    "param_not_an_array": (_both_param_maps(_replace_first(lambda a: 3)), "'params'"),
    "param_int64": (_both_param_maps(_replace_first(lambda a: a.astype(np.int64))),
                    "'params'"),
    "param_wrong_shape": (_both_param_maps(_replace_first(lambda a: a[1:])), "file shape"),
    "best_param_inf": (lambda p: _replace_first(_with_first(np.inf))(p["best_params"]),
                       "'best_params'"),
    "param_nan": (lambda p: _replace_first(_with_first(np.nan))(p["params"]), "'params'"),
}


def _optimizer(mutate):
    return lambda payload: mutate(payload["optimizer"])


def _first_moment(mutate):
    return _optimizer(lambda opt: mutate(next(iter(opt.values()))))


# CRC-valid checkpoints whose optimizer moments alone are malformed; only a
# resume reads them
MALFORMED_OPTIMIZER_STATES = {
    "unknown_param": (_optimizer(lambda o: o.update(ghost=next(iter(o.values())))),
                      "'ghost'"),
    "moments_not_a_mapping": (_optimizer(lambda o: o.update({next(iter(o)): [1, 2, 3]})),
                              "is not a mapping"),
    "m_an_int": (_first_moment(lambda st: st.update(m=3)), "field 'm' is missing or malformed"),
    "v_int64": (_first_moment(lambda st: st.update(v=st["v"].astype(np.int64))),
                "field 'v' is missing or malformed"),
    "m_nan": (_first_moment(lambda st: st.update(m=_with_first(np.nan)(st["m"]))),
              "field 'm' is missing or malformed"),
    "v_inf": (_first_moment(lambda st: st.update(v=_with_first(np.inf)(st["v"]))),
              "field 'v' is missing or malformed"),
    "m_wrong_shape": (_first_moment(lambda st: st.update(m=st["m"][1:])),
                      "m and v do not have the parameter's shape"),
    "no_v": (_first_moment(lambda st: st.pop("v")), "field 'v' is missing or malformed"),
    "t_zero": (_first_moment(lambda st: st.update(t=0)), "field 't' is missing or malformed"),
    "t_a_float": (_first_moment(lambda st: st.update(t=2.0)),
                  "field 't' is missing or malformed"),
    "t_a_bool": (_first_moment(lambda st: st.update(t=True)),
                 "field 't' is missing or malformed"),
}


@pytest.fixture(scope="module")
def trained_doc(tmp_path_factory):
    base = tmp_path_factory.mktemp("trained")
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(corpora.doc_config(
        str(base), n_train=24, n_eval=8, epochs=2, batch_size=8)), encoding="utf-8")
    ckpt = str(base / "model.ckpt")
    train(instantiate_task(parse_task_config(cfg_path.read_text(encoding="utf-8"))),
          ckpt_path=ckpt)
    texts = base / "texts.txt"
    texts.write_text("wake me now\nplay it again\n", encoding="utf-8")
    return SimpleNamespace(cfg_path=str(cfg_path), ckpt=ckpt, texts=str(texts))


def test_reader_tables_name_exactly_the_keys_the_writers_write(trained_doc):
    payload = binio.read_container(trained_doc.ckpt, CKPT_MAGIC, CKPT_VERSION)
    assert set(trainer_module._CKPT_FIELDS) == set(payload)  # checkpoint_payload's keys
    assert set(trainer_module._RECORD_FIELDS) == {f.name for f in fields(EpochRecord)}
    for record in payload["history"]:
        assert set(trainer_module._RECORD_FIELDS) == set(record)
    for moments in payload["optimizer"].values():  # Adam.state_payload's
        assert set(trainer_module._MOMENT_FIELDS) == set(moments)


def test_a_loaded_checkpoint_keeps_the_vocabularies_that_checked_it(trained_doc):
    payload = load_checkpoint(trained_doc.ckpt)
    for name in VOCAB_NAMES:
        vocab = getattr(payload.vocabs, name)
        assert vocab.entries is payload["vocabs"][name]
        assert vocab == Vocabulary(payload["vocabs"][name])


class TestMalformedCheckpoints:
    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_predict_and_resume_exit_1(self, trained_doc, tmp_path, capsys, case):
        mutate, message = MALFORMED_CHECKPOINTS[case]
        payload = binio.read_container(trained_doc.ckpt, CKPT_MAGIC, CKPT_VERSION)
        mutate(payload)
        path = str(tmp_path / "bad.ckpt")
        save_checkpoint(path, payload)  # a fresh, valid checksum
        capsys.readouterr()
        assert cli.main(["predict", "--ckpt", path, "--input", trained_doc.texts]) == 1
        assert message in capsys.readouterr().err
        assert cli.main(["train", "--config", trained_doc.cfg_path, "--resume", path,
                         "--out-dir", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "out" / "model.ckpt"))

    @pytest.mark.parametrize("case", sorted(MALFORMED_OPTIMIZER_STATES))
    def test_resume_with_bad_optimizer_state_exits_1(self, trained_doc, tmp_path, capsys,
                                                     case):
        mutate, message = MALFORMED_OPTIMIZER_STATES[case]
        payload = binio.read_container(trained_doc.ckpt, CKPT_MAGIC, CKPT_VERSION)
        mutate(payload)
        path = str(tmp_path / "bad.ckpt")
        save_checkpoint(path, payload)
        capsys.readouterr()
        assert cli.main(["train", "--config", trained_doc.cfg_path, "--resume", path,
                         "--out-dir", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "out" / "model.ckpt"))

    def test_resume_checks_best_params_before_training(self, trained_doc):
        payload = load_checkpoint(trained_doc.ckpt)
        payload["best_params"].pop(next(iter(payload["best_params"])))
        pipe = instantiate_task(parse_task_config(
            open(trained_doc.cfg_path, encoding="utf-8").read()))
        pipe.settings.epochs = len(payload["history"]) + 2

        def no_training(epoch):
            raise AssertionError("epoch %d started before best_params were checked" % epoch)
        pipe.train_batches = no_training
        with pytest.raises(IncompatibleShare):
            train(pipe, resume=payload)


# --- a resumed run reproduces the uninterrupted run, over drawn configs ---

def _interrupted_after(pipe, n_epochs):
    """pipe, whose training is cut in the evaluation after n_epochs epochs."""
    evaluate, calls = pipe.evaluate, []

    def cut():
        calls.append(1)
        if len(calls) > n_epochs:
            raise KeyboardInterrupt
        return evaluate()
    pipe.evaluate = cut
    return pipe


@settings(max_examples=30, deadline=None)
@given(model=model_configs(), optimizer=st.sampled_from(["sgd", "adam"]),
       patience=st.integers(0, 2), epochs=st.integers(2, 3), seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_a_resumed_run_reproduces_the_uninterrupted_run(model, optimizer, patience, epochs,
                                                        seed, data):
    kept = data.draw(st.integers(1, epochs - 1), label="epochs before the cut")
    kind, model_section = model
    build = {"doc": corpora.doc_config, "word": corpora.word_config,
             "joint": corpora.joint_config}[kind]
    with tempfile.TemporaryDirectory() as root:
        cfg = build(root, n_train=12, n_eval=4, seed=seed, epochs=epochs, batch_size=4)
        (task,) = cfg["task"].values()
        task["model"] = model_section
        task["optimizer"] = {optimizer: {"lr": 0.05}}
        task["trainer"]["standard"]["patience"] = patience
        text = json.dumps(cfg)
        paths = {run: os.path.join(root, run + ".ckpt") for run in ("straight", "cut")}

        straight = instantiate_task(parse_task_config(text))
        want = train(straight, ckpt_path=paths["straight"])
        try:
            train(_interrupted_after(instantiate_task(parse_task_config(text)), kept),
                  ckpt_path=paths["cut"])
        except KeyboardInterrupt:
            pass  # unless patience stopped the run first
        resumed = instantiate_task(parse_task_config(text))
        got = train(resumed, ckpt_path=paths["cut"], resume=load_checkpoint(paths["cut"]))
        files = {run: open(path, "rb").read() for run, path in paths.items()}
    assert got == want
    assert files["cut"] == files["straight"]
    graphs = [export_pipeline(pipe) for pipe in (straight, resumed)]
    blobs = [{head: serialize(g) for head, g in (gs.items() if kind == "joint" else [("", gs)])}
             for gs in graphs]
    assert blobs[0] == blobs[1]
