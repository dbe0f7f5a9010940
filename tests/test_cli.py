"""End to end command line checks, run through subprocesses like a user would."""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import corpora
from textforge.trainer import load_checkpoint


def run_cli(*args, stdin="", env_extra=None):
    env = dict(os.environ)
    env.pop("TEXTFORGE_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "textforge.cli", *args],
                          input=stdin, capture_output=True, text=True, env=env)


_ATTN = {"representation": {"bilstm_attn": {}}}
_CHARS = {"embedding": {"token": {"word_dim": 8, "char_dim": 3}}}

# out-of-range sizes: doc_config overrides, the field's path under the task, its value
SIZE_PROBES = [
    ({}, ("data", "tsv", "batch_size"), 0),
    ({}, ("data", "tsv", "batch_size"), -3),
    ({}, ("featurizer", "basic", "max_chars"), -1),
    ({}, ("model", "single", "representation", "docnn", "num_filters"), 0),
    ({}, ("model", "single", "decoder", "mlp", "hidden_dims"), [0]),
    (_ATTN, ("model", "single", "representation", "bilstm_attn", "attention_dim"), 0),
    (_ATTN, ("model", "single", "representation", "bilstm_attn", "hidden_dim"), 0),
    (_CHARS, ("model", "single", "embedding", "token", "char_num_filters"), 0),
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
        assert payload["seed"] == 123
        snapshot = json.loads(payload["config"])
        task_params = snapshot["task"]["doc_classification"]
        assert task_params["trainer"]["standard"]["seed"] == 123

    def test_seed_env_must_be_integer(self, tmp_path):
        cfg = corpora.doc_config(str(tmp_path), n_train=8, n_eval=4, epochs=1)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        proc = run_cli("train", "--config", str(cfg_path),
                       "--out-dir", str(tmp_path / "out"),
                       env_extra={"TEXTFORGE_SEED": "soon"})
        assert proc.returncode == 1
        assert "TEXTFORGE_SEED" in proc.stderr

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

    @pytest.mark.parametrize("overrides,path,value", SIZE_PROBES,
                             ids=["%s=%s" % (path[-1], value) for _, path, value in SIZE_PROBES])
    def test_out_of_range_size_is_a_config_error(self, tmp_path, overrides, path, value):
        cfg = corpora.doc_config(str(tmp_path), n_train=8, n_eval=4, epochs=1, **overrides)
        node = cfg["task"]["doc_classification"]
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        proc = run_cli("train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 1, proc.stderr
        assert "task.doc_classification.%s:" % ".".join(path) in proc.stderr


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

    def test_corrupt_graph(self, doc_graph, tmp_path):
        blob = bytearray(open(doc_graph, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.graph"
        bad.write_bytes(bytes(blob))
        proc = run_cli("predict", "--graph", str(bad), stdin="hello\n")
        assert proc.returncode == 1
        assert "checksum mismatch" in proc.stderr

    def test_unbaked_graph_rejects_text(self, doc_run, tmp_path):
        path = str(tmp_path / "ids.graph")
        proc = run_cli("export", "--model", doc_run.ckpt, "--out", path,
                       "--no-bake-vocab")
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("predict", "--graph", path, stdin="hello\n")
        assert proc.returncode == 1
        assert proc.stderr.startswith("textforge: error:")

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
