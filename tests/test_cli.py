"""End to end command line checks, run through subprocesses like a user would."""

import argparse
import copy
import json
import os
import re
import struct
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import corpora
import textforge
from textforge import cli, model_zoo, trainer
from textforge.exporter import EquivalenceReport
from textforge.graph import GraphOp, load_graph, save_graph
from textforge.pipeline import restore_pipeline
from textforge.registry import parse_task_config, serialize_task_config
from textforge.tensor import Tensor
from textforge.trainer import load_checkpoint
from textforge.vocab import Vocabulary

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(textforge.__file__)))
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def run_cli(*args, stdin="", env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("TEXTFORGE_SEED", None)
    # absolute, so the package still imports when cwd moves
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    # surrogateescape lets a test pipe in bytes that are not UTF-8
    return subprocess.run([sys.executable, "-m", "textforge.cli", *args],
                          input=stdin, capture_output=True, encoding="utf-8",
                          errors="surrogateescape", env=env, cwd=cwd)


_ATTN = {"representation": {"bilstm_attn": {}}}
_CHARS = {"embedding": {"token": {"word_dim": 8, "char_dim": 3}}}

# out-of-range sizes: doc_config overrides, the field's path under the task, its value
SIZE_PROBES = [
    ({}, ("data", "tsv", "batch_size"), 0),
    ({}, ("data", "tsv", "batch_size"), -3),
    ({}, ("featurizer", "basic", "max_chars"), -1),
    ({}, ("featurizer", "basic", "max_chars"), 0),
    ({}, ("model", "single", "representation", "docnn", "num_filters"), 0),
    ({}, ("model", "single", "decoder", "mlp", "hidden_dims"), [0]),
    (_ATTN, ("model", "single", "representation", "bilstm_attn", "attention_dim"), 0),
    (_ATTN, ("model", "single", "representation", "bilstm_attn", "hidden_dim"), 0),
    (_CHARS, ("model", "single", "embedding", "token", "char_num_filters"), 0),
    ({}, ("model", "single", "embedding", "token", "word_dim"), -1),
    (_CHARS, ("model", "single", "embedding", "token", "char_dim"), -1),
    (_CHARS, ("model", "single", "embedding", "token", "char_highway_layers"), -1),
    ({}, ("model", "single", "embedding", "token", "gaz_dim"), -2),
    ({}, ("model", "single", "embedding", "token", "cap_dim"), -3),
    ({}, ("trainer", "standard", "seed"), -1),
    ({}, ("trainer", "standard", "epochs"), 0),
    ({}, ("model", "single", "representation", "docnn", "filter_widths"), [0]),
    (_CHARS, ("model", "single", "embedding", "token", "char_filter_widths"), [2, 0]),
]

# float fields out of range, non-finite included: the config builder, the
# field's path under the task (its component selected there), its value
FLOAT_PROBES = [
    pytest.param(corpora.doc_config, ("optimizer", "adam", "lr"), float("nan"), id="lr=NaN"),
    pytest.param(corpora.doc_config, ("optimizer", "adam", "lr"), float("inf"), id="lr=inf"),
    pytest.param(corpora.doc_config, ("optimizer", "adam", "lr"), 10 ** 400, id="lr=10**400"),
    pytest.param(corpora.doc_config, ("optimizer", "adam", "lr"), 0, id="lr=0"),
    pytest.param(corpora.doc_config, ("optimizer", "sgd", "lr"), -0.5, id="sgd.lr=-0.5"),
    pytest.param(corpora.doc_config, ("optimizer", "adam", "beta1"), -0.1, id="beta1=-0.1"),
    pytest.param(corpora.doc_config, ("optimizer", "adam", "beta1"), 1.0, id="beta1=1"),
    pytest.param(corpora.doc_config, ("optimizer", "adam", "beta2"), 1.5, id="beta2=1.5"),
    pytest.param(corpora.doc_config, ("optimizer", "adam", "eps"), 0.0, id="eps=0"),
    pytest.param(corpora.doc_config, ("optimizer", "adam", "eps"), float("-inf"), id="eps=-inf"),
    pytest.param(corpora.joint_config, ("model", "joint", "doc_loss_weight"), -1.0,
                 id="doc_loss_weight=-1"),
    pytest.param(corpora.joint_config, ("model", "joint", "word_loss_weight"), float("nan"),
                 id="word_loss_weight=NaN"),
]

# a filter width given twice: the overrides, the field's path under the task, its value
REPEATED_WIDTHS = [
    pytest.param({}, ("model", "single", "representation", "docnn", "filter_widths"), [2, 2],
                 id="docnn"),
    pytest.param(_CHARS, ("model", "single", "embedding", "token", "char_filter_widths"),
                 [1, 3, 1], id="chars"),
]

# an empty width list: the overrides, the field's path under the task; with
# char_dim 0 no char filter is built, and [] is still refused
EMPTY_WIDTHS = [
    pytest.param({}, ("model", "single", "representation", "docnn", "filter_widths"),
                 id="docnn"),
    pytest.param(_CHARS, ("model", "single", "embedding", "token", "char_filter_widths"),
                 id="chars"),
    pytest.param({}, ("model", "single", "embedding", "token", "char_filter_widths"),
                 id="chars-off"),
]


@pytest.fixture(scope="module")
def doc_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("docrun")
    cfg = corpora.doc_config(str(base), n_train=24, n_eval=8, epochs=2,
                             lr=0.05, batch_size=8)
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = base / "out"
    proc = run_cli("train", "--config", str(cfg_path), "--out-dir", str(out_dir))
    assert proc.returncode == 0, proc.stderr
    return SimpleNamespace(base=base, cfg_path=cfg_path, out_dir=out_dir,
                           ckpt=str(out_dir / "model.ckpt"), stdout=proc.stdout)


@pytest.fixture(scope="module")
def doc_graph(doc_run):
    path = str(doc_run.base / "model.graph")
    proc = run_cli("export", "--model", doc_run.ckpt, "--out", path)
    assert proc.returncode == 0, proc.stderr
    assert "predictions ok" in proc.stdout
    return path


class TestTrain:
    def test_outputs_and_reports(self, doc_run):
        assert os.path.exists(doc_run.ckpt)
        assert "best epoch" in doc_run.stdout
        assert "checkpoint:" in doc_run.stdout
        report = json.loads((doc_run.out_dir / "train_report.json").read_text())
        assert report["task"] == "doc_classification"
        assert report["epochs_run"] == 2
        assert len(report["history"]) == 2
        assert report["checkpoint"] == doc_run.ckpt
        text = (doc_run.out_dir / "train_report.txt").read_text()
        assert "epoch 1:" in text and "best epoch" in text

    def test_missing_data_file(self, tmp_path):
        cfg = corpora.doc_config(str(tmp_path), n_train=8, n_eval=4, epochs=1)
        missing = str(tmp_path / "gone.tsv")
        cfg["task"]["doc_classification"]["data"]["tsv"]["train_path"] = missing
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        proc = run_cli("train", "--config", str(cfg_path),
                       "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "gone.tsv" in proc.stderr

    def test_seed_env_override(self, tmp_path):
        cfg = corpora.doc_config(str(tmp_path), n_train=8, n_eval=4, epochs=1)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        proc = run_cli("train", "--config", str(cfg_path),
                       "--out-dir", str(tmp_path / "out"),
                       env_extra={"TEXTFORGE_SEED": "123"})
        assert proc.returncode == 0, proc.stderr
        payload = load_checkpoint(str(tmp_path / "out" / "model.ckpt"))
        # the checkpoint keeps the seed in its config snapshot alone
        snapshot = json.loads(payload["config"])
        task_params = snapshot["task"]["doc_classification"]
        assert task_params["trainer"]["standard"]["seed"] == 123
        assert restore_pipeline(payload).settings.seed == 123

    def test_seed_env_must_be_integer(self, tmp_path):
        cfg = corpora.doc_config(str(tmp_path), n_train=8, n_eval=4, epochs=1)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        for raw in ("soon", "-3"):
            proc = run_cli("train", "--config", str(cfg_path),
                           "--out-dir", str(tmp_path / "out"),
                           env_extra={"TEXTFORGE_SEED": raw})
            assert proc.returncode == 1, (raw, proc.stderr)
            assert "TEXTFORGE_SEED" in proc.stderr, raw

    def test_non_utf8_config(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_bytes(b'{"task": "caf\xe9"}')
        proc = run_cli("train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 1, proc.stderr
        assert "config.json is not UTF-8" in proc.stderr

    def test_non_utf8_tsv(self, tmp_path):
        cfg = corpora.doc_config(str(tmp_path), n_train=8, n_eval=4, epochs=1)
        train_path = cfg["task"]["doc_classification"]["data"]["tsv"]["train_path"]
        with open(train_path, "ab") as handle:
            handle.write(b"alarm\twake me at caf\xe9\n")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        proc = run_cli("train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 1, proc.stderr
        assert "%s is not UTF-8" % train_path in proc.stderr

    # "wake me at nine" is 15 bytes; each column is one gazetteer fault
    @pytest.mark.parametrize("column,why", [
        ("5:7:<pad>", "kind '<pad>' is reserved"),
        ("5:7:<unk>", "kind '<unk>' is reserved"),
        ("-5:2:city", "outside the text's 15 bytes"),
        ("11:20:city", "outside the text's 15 bytes"),
        ("11:15:city,5:7:city", "sorted and disjoint"),
        ("5:5:city", "empty span"),
    ], ids=["pad-kind", "unk-kind", "negative-start", "end-past-text", "unsorted", "empty"])
    def test_bad_gazetteer_item_names_file_and_line(self, tmp_path, column, why):
        cfg = corpora.doc_config(str(tmp_path), n_train=8, n_eval=4, epochs=1)
        train_path = cfg["task"]["doc_classification"]["data"]["tsv"]["train_path"]
        with open(train_path, "a", encoding="utf-8") as handle:
            handle.write("alarm\twake me at nine\t%s\n" % column)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        proc = run_cli("train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 1, proc.stderr
        assert "%s line 9: " % train_path in proc.stderr and why in proc.stderr

    def test_resume_rejects_other_config(self, doc_run, tmp_path):
        cfg = corpora.doc_config(str(tmp_path), n_train=8, n_eval=4, epochs=1,
                                 lr=0.2)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        proc = run_cli("train", "--config", str(cfg_path),
                       "--out-dir", str(tmp_path / "out"),
                       "--resume", doc_run.ckpt)
        assert proc.returncode == 1
        assert "different configuration" in proc.stderr

    def test_resume_of_a_finished_run_writes_its_checkpoint(self, doc_run, tmp_path,
                                                            monkeypatch, capsys):
        steps = []
        step = trainer.Adam.step
        monkeypatch.setattr(trainer.Adam, "step", lambda opt: steps.append(opt) or step(opt))
        out_dir = tmp_path / "run2"
        assert cli.main(["train", "--config", str(doc_run.cfg_path), "--out-dir", str(out_dir),
                         "--resume", doc_run.ckpt]) == 0
        ckpt = out_dir / "model.ckpt"
        assert "checkpoint: %s" % ckpt in capsys.readouterr().out
        assert steps == []
        assert ckpt.read_bytes() == open(doc_run.ckpt, "rb").read()
        report = json.loads((out_dir / "train_report.json").read_text())
        assert report["checkpoint"] == str(ckpt) and report["epochs_run"] == 2

    def test_resume_of_an_early_stopped_run_trains_no_more(self, tmp_path, monkeypatch,
                                                            capsys):
        # an lr far below every weight's float32 spacing keeps every epoch's
        # score, so patience 1 stops after epoch 1
        cfg = corpora.doc_config(str(tmp_path), n_train=8, n_eval=4, epochs=4, lr=1e-30)
        cfg["task"]["doc_classification"]["trainer"]["standard"]["patience"] = 1
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        first, resumed = tmp_path / "run1", tmp_path / "run2"
        assert cli.main(["train", "--config", str(cfg_path), "--out-dir", str(first)]) == 0
        assert "(stopped early)" in capsys.readouterr().out
        steps = []
        step = trainer.Adam.step
        monkeypatch.setattr(trainer.Adam, "step", lambda opt: steps.append(opt) or step(opt))
        assert cli.main(["train", "--config", str(cfg_path), "--out-dir", str(resumed),
                         "--resume", str(first / "model.ckpt")]) == 0
        out = capsys.readouterr().out
        assert "epoch 2:" not in out and "(stopped early)" in out
        assert steps == []
        assert (resumed / "model.ckpt").read_bytes() == (first / "model.ckpt").read_bytes()
        report = json.loads((resumed / "train_report.json").read_text())
        assert report["epochs_run"] == 2 and report["stopped_early"] is True

    def test_eval_label_missing_from_train(self, tmp_path, monkeypatch, capsys):
        cfg = corpora.doc_config(str(tmp_path), n_train=8, n_eval=4, epochs=1)
        eval_path = cfg["task"]["doc_classification"]["data"]["tsv"]["eval_path"]
        with open(eval_path, encoding="utf-8") as handle:
            line_no = len(handle.readlines()) + 1
        with open(eval_path, "a", encoding="utf-8") as handle:
            handle.write("zzunseen\tset an alarm\n")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        steps = []
        step = trainer.Adam.step
        monkeypatch.setattr(trainer.Adam, "step", lambda opt: steps.append(opt) or step(opt))
        out_dir = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert "%s line %d: unknown document label 'zzunseen'" % (eval_path, line_no) in err
        assert steps == []
        assert not (out_dir / "model.ckpt").exists()

    @pytest.mark.parametrize("overrides,path,value", SIZE_PROBES,
                             ids=["%s=%s" % (path[-1], value) for _, path, value in SIZE_PROBES])
    def test_out_of_range_size_is_a_config_error(self, tmp_path, overrides, path, value):
        # a copy, since the probes share their override dicts
        cfg = corpora.doc_config(str(tmp_path), n_train=8, n_eval=4, epochs=1,
                                 **copy.deepcopy(overrides))
        node = cfg["task"]["doc_classification"]
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        proc = run_cli("train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 1, proc.stderr
        assert "task.doc_classification.%s:" % ".".join(path) in proc.stderr

    @pytest.mark.parametrize("build,path,value", FLOAT_PROBES)
    def test_out_of_range_float_is_a_config_error(self, tmp_path, capsys, build, path, value):
        cfg = build(str(tmp_path), n_train=8, n_eval=4, epochs=1)
        (task,) = cfg["task"]
        node = cfg["task"][task]
        for key in path[:-2]:
            node = node[key]
        component, field = path[-2:]
        if component not in node:  # select that component in place of the default
            node.clear()
            node[component] = {}
        node[component][field] = value
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out_dir = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 1
        assert "task.%s.%s:" % (task, ".".join(path)) in capsys.readouterr().err
        assert not (out_dir / "model.ckpt").exists()

    @pytest.mark.parametrize("overrides,path,value", REPEATED_WIDTHS)
    def test_repeated_filter_width_is_a_config_error(self, tmp_path, capsys, overrides, path,
                                                     value):
        # a repeated width would name two filters alike, and one would go untrained
        assert train_doc_with(tmp_path, overrides, path, value) == (1, False)
        err = capsys.readouterr().err
        assert "task.doc_classification.%s: items must differ" % ".".join(path) in err

    @pytest.mark.parametrize("overrides,path", EMPTY_WIDTHS)
    def test_empty_width_list_is_a_config_error(self, tmp_path, capsys, overrides, path):
        assert train_doc_with(tmp_path, overrides, path, []) == (1, False)
        err = capsys.readouterr().err
        assert "task.doc_classification.%s: needs at least one item" % ".".join(path) in err


def train_doc_with(tmp_path, overrides, path, value):
    """cli.main train on a small doc config (with overrides) whose field at
    path under the task is value: (exit code, whether a checkpoint was written)."""
    cfg = corpora.doc_config(str(tmp_path), n_train=8, n_eval=4, epochs=1,
                             **copy.deepcopy(overrides))
    node = cfg["task"]["doc_classification"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "out"
    code = cli.main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    return code, (out_dir / "model.ckpt").exists()


# replacement values for one config leaf: small ints only, since a large size
# or epoch count would build a big model or train for minutes
_NAN, _INF = float("nan"), float("inf")
SAME_KIND = {bool: [], int: [-1, 0, 1, 2, 3], float: [_NAN, _INF, -_INF, -1, 0, 2],
             str: ["", "missing.tsv"], list: [[], [0], [-1], [2, 3], [1, 1], ["x"]]}
ANY_KIND = [-1, 0, 1, 2, 3, "x", True, None, [], {}, _NAN, _INF, -_INF]


def _leaves(node, path=()):
    """(path, value) of every value in a config that is not an object."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _mutations(config, salt):
    """Labelled copies of a config, each one edit away: every leaf takes a
    value of its own kind and one of any kind; a section is deleted; an
    unknown key is added."""
    deleted = object()

    def edited(path, value):
        cfg = copy.deepcopy(config)
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if value is deleted:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return cfg

    for i, (path, value) in enumerate(_leaves(config)):
        same = SAME_KIND[type(value)] or [not value]
        for new in (same[(i + salt) % len(same)], ANY_KIND[(i + salt) % len(ANY_KIND)]):
            yield "%s=%r" % (".".join(path), new), edited(path, new)
    (task,) = config["task"]
    for section in ("data", "featurizer", "model", "optimizer", "trainer"):
        yield "del %s" % section, edited(("task", task, section), deleted)
    for path in (("task", task, "zz"), ("task", task, "model", "zz")):
        yield "add %s" % ".".join(path), edited(path, 1)


class TestConfigMutations:
    """Every config one edit away from a valid one trains, or fails as a
    config or input error: exit 0 or 1, never 2. A run that trains exports."""

    @pytest.mark.parametrize("salt,build", enumerate(
        [corpora.doc_config, corpora.word_config, corpora.joint_config]),
        ids=["doc", "word", "joint"])
    def test_one_edit_never_exits_2(self, tmp_path, monkeypatch, capsys, salt, build):
        monkeypatch.delenv("TEXTFORGE_SEED", raising=False)
        cfg = build(str(tmp_path), n_train=8, n_eval=4, epochs=1)
        # every field written out, defaults included, so each is a leaf
        full = json.loads(serialize_task_config(parse_task_config(json.dumps(cfg))))
        cfg_path, out_dir = tmp_path / "config.json", tmp_path / "out"
        codes = {}
        for label, mutated in _mutations(full, salt):
            cfg_path.write_text(json.dumps(mutated), encoding="utf-8")
            code = cli.main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)])
            if code == 0:
                code = cli.main(["export", "--model", str(out_dir / "model.ckpt"),
                                 "--out", str(tmp_path / "model.graph")])
            codes[label] = (code, capsys.readouterr().err)
        assert len(codes) >= 50
        assert {label: c for label, c in codes.items() if c[0] not in (0, 1)} == {}
        # the edits reach both outcomes
        assert {code for code, _ in codes.values()} == {0, 1}


class TestPredict:
    TEXTS = "set an alarm for nine\n\nplay some jazz zzz-unseen\n"

    def test_graph_and_ckpt_agree(self, doc_run, doc_graph):
        via_graph = run_cli("predict", "--graph", doc_graph, stdin=self.TEXTS)
        via_ckpt = run_cli("predict", "--ckpt", doc_run.ckpt, stdin=self.TEXTS)
        assert via_graph.returncode == 0, via_graph.stderr
        assert via_ckpt.returncode == 0, via_ckpt.stderr
        assert via_graph.stdout == via_ckpt.stdout
        rows = [json.loads(line) for line in via_graph.stdout.splitlines()]
        assert len(rows) == 3
        for row in rows:
            assert set(row) == {"label", "score"}
            assert 0.0 < row["score"] <= 1.0

    def test_input_file(self, doc_graph, tmp_path):
        path = tmp_path / "texts.txt"
        path.write_text(self.TEXTS, encoding="utf-8")
        from_file = run_cli("predict", "--graph", doc_graph, "--input", str(path))
        from_stdin = run_cli("predict", "--graph", doc_graph, stdin=self.TEXTS)
        assert from_file.returncode == 0
        assert from_file.stdout == from_stdin.stdout

    def test_empty_stdin(self, doc_graph):
        proc = run_cli("predict", "--graph", doc_graph, stdin="")
        assert proc.returncode == 0
        assert proc.stdout == ""

    def test_non_utf8_stdin(self, doc_graph):
        proc = run_cli("predict", "--graph", doc_graph,
                       stdin=b"caf\xe9 wake\n".decode("utf-8", "surrogateescape"))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("textforge: error: stdin is not UTF-8 text")
        assert proc.stdout == ""

    def test_corrupt_graph(self, doc_graph, tmp_path):
        blob = bytearray(open(doc_graph, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.graph"
        bad.write_bytes(bytes(blob))
        proc = run_cli("predict", "--graph", str(bad), stdin="hello\n")
        assert proc.returncode == 1
        assert "checksum mismatch" in proc.stderr

    def test_graph_input_that_is_a_const(self, doc_graph, tmp_path):
        g = load_graph(doc_graph)
        g.consts[g.inputs[0]] = np.zeros(2, dtype=np.float32)
        bad = str(tmp_path / "shadowed.graph")
        save_graph(g, bad)
        proc = run_cli("predict", "--graph", bad, stdin="hello\n")
        assert proc.returncode == 1, proc.stderr
        assert "is also a const" in proc.stderr

    @pytest.mark.parametrize("name,rank", [
        ("embedding.word.table", 1), ("representation.conv1", 1),
        ("representation.conv2", 0), ("decoder.w0", 0),
    ])
    def test_const_of_the_wrong_rank_is_an_input_error(self, doc_graph, tmp_path, name, rank):
        # the graph is refused at load; its first request would fail in a kernel
        g = load_graph(doc_graph)
        flat = g.consts[name].reshape(-1)
        g.consts[name] = flat if rank == 1 else flat[:1].reshape(())
        bad = str(tmp_path / "misranked.graph")
        save_graph(g, bad)
        proc = run_cli("predict", "--graph", bad, stdin="hello\n")
        assert proc.returncode == 1, proc.stderr
        assert "reads const %r of rank %d" % (name, rank) in proc.stderr

    def test_unbaked_graph_rejects_text(self, doc_run, doc_graph, tmp_path):
        # an integer-id-input graph, as older exports could write: no lookups
        g = load_graph(doc_graph)
        lookups = [op for op in g.ops if op.opcode.startswith("Lookup")]
        g.ops = [op for op in g.ops if op not in lookups]
        g.inputs = [op.output for op in lookups]
        g.vocabs = {}
        path = str(tmp_path / "ids.graph")
        save_graph(g, path)
        for cmd in (("predict", "--graph", path),
                    ("bench", "--ckpt", doc_run.ckpt, "--graph", path, "--requests", "2")):
            proc = run_cli(*cmd, stdin="hello\n")
            assert proc.returncode == 1, (cmd, proc.stderr)
            # the token lookup is the first traced op, so its slot is named 0
            assert "textforge: error: graph expects unknown input '0'" in proc.stderr

    @pytest.mark.parametrize("opcode,attrs", [
        ("Concat", {"axis": 0}),
        ("LookupChars", {"vocab": "char", "max_chars": -2}),
    ])
    def test_malformed_op_attr_is_an_input_error(self, doc_graph, tmp_path, opcode, attrs):
        g = load_graph(doc_graph)
        if opcode == "LookupChars":
            # the doc model reads no chars; this lookup runs but nothing reads it
            g.vocabs["char"] = Vocabulary(["a"])
            g.ops.insert(0, GraphOp("LookupChars", ("tokens",), "char_ids", attrs))
        else:
            (op,) = [op for op in g.ops if op.opcode == opcode]
            op.attrs.update(attrs)
        bad = str(tmp_path / "bad.graph")
        save_graph(g, bad)
        proc = run_cli("predict", "--graph", bad, stdin="hello\n")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("textforge: error: op %s" % opcode), proc.stderr

    def test_graph_and_ckpt_are_exclusive(self, doc_run, doc_graph):
        proc = run_cli("predict", "--graph", doc_graph, "--ckpt", doc_run.ckpt,
                       stdin="")
        assert proc.returncode == 1
        assert "textforge:" in proc.stderr


class TestExportAndBench:
    def test_joint_export_writes_one_graph_per_head(self, tmp_path):
        cfg = corpora.joint_config(str(tmp_path), n_train=12, n_eval=6, epochs=1)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out_dir = tmp_path / "out"
        proc = run_cli("train", "--config", str(cfg_path), "--out-dir", str(out_dir))
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("export", "--model", str(out_dir / "model.ckpt"),
                       "--out", str(tmp_path / "model.graph"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "model.doc.graph").exists()
        assert (tmp_path / "model.word.graph").exists()
        assert proc.stdout.count("predictions ok") == 2

        tagged = run_cli("predict", "--graph", str(tmp_path / "model.word.graph"),
                         stdin="set an alarm\n")
        assert tagged.returncode == 0, tagged.stderr
        row = json.loads(tagged.stdout)
        assert row["label"] is None and row["score"] is None
        assert len(row["tags"]) == 3 and len(row["tag_scores"]) == 3

    def test_bench_times_like_against_like_on_a_joint_checkpoint(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(corpora.joint_config(str(tmp_path), n_train=12,
                                                            n_eval=6, epochs=1)),
                            encoding="utf-8")
        assert cli.main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        assert cli.main(["export", "--model", str(tmp_path / "model.ckpt"),
                         "--out", str(tmp_path / "model.graph")]) == 0
        capsys.readouterr()
        pipe = restore_pipeline(load_checkpoint(str(tmp_path / "model.ckpt")))
        texts = ["set an alarm", "Play THE song now", "zzqx", ""]
        for head in ("doc", "word"):
            graph = load_graph(str(tmp_path / ("model.%s.graph" % head)))
            eager, exported = cli._eager_predictor(pipe, graph), cli._graph_predictor(graph)
            for text in texts:
                assert json.dumps(eager(text)) == json.dumps(exported(text)), (head, text)

    def test_older_checkpoint_format_is_refused(self, doc_run, tmp_path):
        # format 4 checkpoints repeat the seed, the optimizer settings and
        # the last and best epochs, which format 5 derives
        blob = bytearray(open(doc_run.ckpt, "rb").read())
        blob[4:8] = struct.pack("<I", 4)
        old = tmp_path / "v4.ckpt"
        old.write_bytes(bytes(blob))
        for args in (("export", "--model", str(old), "--out", str(tmp_path / "m.graph")),
                     ("predict", "--ckpt", str(old)),
                     ("train", "--config", str(doc_run.cfg_path),
                      "--out-dir", str(tmp_path / "out"), "--resume", str(old))):
            proc = run_cli(*args, stdin="hello\n")
            assert proc.returncode == 1, (args, proc.stderr)
            assert "format version 4, expected 5" in proc.stderr, args

    def test_older_graph_format_is_refused(self, doc_graph, tmp_path):
        # format 3 ops list their outputs and carry a Concat axis and a
        # LookupChars max_chars, which format 4 dropped
        blob = bytearray(open(doc_graph, "rb").read())
        blob[4:8] = struct.pack("<I", 3)
        old = tmp_path / "v3.graph"
        old.write_bytes(bytes(blob))
        proc = run_cli("predict", "--graph", str(old), stdin="hello\n")
        assert proc.returncode == 1, proc.stderr
        assert "format version 3, expected 4" in proc.stderr

    @pytest.mark.parametrize("kind,bad_head,report", [
        ("doc", None, EquivalenceReport(1e-7, True, 40)),
        ("joint", "word", EquivalenceReport(0.0, False, 40)),
    ])
    def test_export_that_differs_from_eager_writes_nothing(self, tmp_path, monkeypatch,
                                                           capsys, kind, bad_head, report):
        build = {"doc": corpora.doc_config, "joint": corpora.joint_config}[kind]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(build(str(tmp_path), n_train=12, n_eval=6, epochs=1)),
                            encoding="utf-8")
        assert cli.main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        checked = []

        def verify(pipe, graph, n_samples, seed, head):
            checked.append(head)
            return report if head == bad_head else EquivalenceReport(0.0, True, 40)
        monkeypatch.setattr(cli, "verify_equivalence", verify)
        capsys.readouterr()
        assert cli.main(["export", "--model", str(tmp_path / "model.ckpt"),
                         "--out", str(tmp_path / "model.graph")]) == 1
        assert "no graph written" in capsys.readouterr().err
        assert checked == (["doc", "word"] if kind == "joint" else [None])
        assert not [name for name in os.listdir(str(tmp_path)) if name.endswith(".graph")]

    def test_export_of_a_value_made_outside_ops_fails(self, doc_run, tmp_path, monkeypatch,
                                                      capsys):
        # the decoder reads a Tensor that no op made: tracing cannot see how
        # it was computed, so the export fails instead of baking it in
        forward = model_zoo.MLPDecoder.forward
        monkeypatch.setattr(model_zoo.MLPDecoder, "forward",
                            lambda self, rep: forward(self, Tensor(rep.data)))
        out = tmp_path / "model.graph"
        assert cli.main(["export", "--model", doc_run.ckpt, "--out", str(out)]) == 1
        assert "no traced op made" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_prints_percentiles(self, doc_run, doc_graph, tmp_path):
        out = tmp_path / "bench.json"
        proc = run_cli("bench", "--ckpt", doc_run.ckpt, "--graph", doc_graph,
                       "--requests", "30", "--warmup", "3", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "eager" in proc.stdout and "exported" in proc.stdout
        assert "reference medians" not in proc.stdout
        rows = json.loads(out.read_text())
        assert [r["implementation"] for r in rows] == ["eager", "exported"]
        assert all(r["n_requests"] == 30 for r in rows)

    @pytest.mark.parametrize("flag,value,why", [
        ("--warmup", "-5", "must be at least 0, got -5"),
        ("--requests", "-5", "must be at least 1, got -5"),
        ("--requests", "0", "must be at least 1, got 0"),
    ])
    def test_bench_rejects_a_count_out_of_range(self, doc_run, doc_graph, tmp_path,
                                                capsys, flag, value, why):
        out = tmp_path / "bench.json"
        assert cli.main(["bench", "--ckpt", doc_run.ckpt, "--graph", doc_graph,
                         "--requests", "2", flag, value, "--out", str(out)]) == 1
        assert "argument %s: %s" % (flag, why) in capsys.readouterr().err
        assert not out.exists()


class TestUsage:
    def test_unknown_flag(self):
        proc = run_cli("train", "--config", "x.json", "--bogus")
        assert proc.returncode == 1
        assert "textforge:" in proc.stderr

    def test_missing_subcommand(self):
        proc = run_cli()
        assert proc.returncode == 1

    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 1

    def test_readme_cli_flags_match_the_parser(self):
        """Each README `## CLI` bullet names exactly its subcommand's flags."""
        with open(README, encoding="utf-8") as handle:
            section = handle.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for bullet in section.split("\n- `textforge ")[1:]:
            command = bullet.split()[0]
            documented[command] = set(re.findall(r"--[a-z][a-z-]*", bullet))
        (subparsers,) = [a for a in cli._build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        parsed = {name: {s for a in p._actions for s in a.option_strings
                         if s.startswith("--") and s != "--help"}
                  for name, p in subparsers.choices.items()}
        assert documented == parsed


class TestQuickStart:
    """The README quick start, run as written: its TSVs and config go to a
    fresh directory, then train -> export -> predict --graph."""

    def test_readme_quick_start(self, tmp_path):
        with open(README, encoding="utf-8") as handle:
            text = handle.read()
        section = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
        files = re.findall(r"cat > (\S+) <<'EOF'\n(.*?\n)EOF\n", section, re.S)
        (config,) = re.findall(r"```json\n(.*?)```", section, re.S)
        assert [name for name, _ in files] == ["train.tsv", "eval.tsv"]
        for name, body in files:
            (tmp_path / name).write_text(body, encoding="utf-8")
        (tmp_path / "config.json").write_text(config, encoding="utf-8")

        steps = [("train", "--config", "config.json", "--out-dir", "run"),
                 ("export", "--model", "run/model.ckpt", "--out", "model.graph")]
        for step in steps:
            proc = run_cli(*step, cwd=str(tmp_path))
            assert proc.returncode == 0, (step, proc.stderr)
        texts = ["wake me at eight", "play some jazz", ""]
        proc = run_cli("predict", "--graph", "model.graph", stdin="\n".join(texts) + "\n",
                       cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        rows = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(rows) == len(texts)
        assert all(row["label"] in ("alarm", "music") for row in rows)
