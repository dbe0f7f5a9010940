"""Package acceptance gate.

Each numbered test exercises one promised behavior end to end and prints a
single verdict line, so `pytest tests/test_acceptance.py -s` reads as a
checklist. Training tests are seed-fixed; the timed ones enforce their own
wall-clock budgets.
"""

import contextlib
import json
import os
import struct
import time

import numpy as np
import pytest

import corpora
from textforge import bench, ops
from textforge.data_handler import (FORMAT_DOC, Batch, VocabBundle, load_tsv,
                                    single_example_batch)
from textforge.errors import CorruptFile, CorruptGraph, VersionMismatch
from textforge.exporter import export_pipeline, verify_equivalence
from textforge.featurizer import CAP_CLASSES, GAZ_NONE
from textforge.graph import Executor, load_graph, run, save_graph, serialize
from textforge.model_zoo import (BiLSTMAttnRepresentation,
                                 DocClassificationOutput, DocNNRepresentation,
                                 MLPDecoder, SingleTaskModel, TokenEmbedding)
from textforge.pipeline import instantiate_task
from textforge.registry import parse_task_config
from textforge.tensor import Tensor
from textforge.trainer import load_checkpoint, save_checkpoint, train
from textforge.vocab import Vocabulary

F32 = np.float32


@contextlib.contextmanager
def verdict(number, title):
    try:
        yield
    except BaseException:
        print("criterion %2d  %-28s FAIL" % (number, title))
        raise
    print("criterion %2d  %-28s PASS" % (number, title))


def make_pipe(dirpath, kind="doc", **overrides):
    build = {"doc": corpora.doc_config, "word": corpora.word_config,
             "joint": corpora.joint_config}[kind]
    os.makedirs(str(dirpath), exist_ok=True)
    cfg = build(str(dirpath), **overrides)
    return instantiate_task(parse_task_config(json.dumps(cfg)))


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def tensor_of(shape, rng, scale=1.0):
    return Tensor((rng.standard_normal(shape) * scale).astype(F32))


def scalarize(y, rng):
    flat = ops.reshape(y, (1, -1))
    w = Tensor((rng.standard_normal((flat.shape[1], 1)) * 0.5).astype(F32))
    b = Tensor(np.zeros(1, dtype=F32))
    return ops.reshape(ops.linear(flat, w, b), ())


def tiny_vocabs():
    return VocabBundle(
        token=Vocabulary(["alarm", "play", "set", "the"]),
        char=Vocabulary(list("aelmprsty")),
        gaz=Vocabulary([GAZ_NONE, "city"]),
        cap=Vocabulary(list(CAP_CLASSES)),
    )


def tiny_batch(vocabs, rng, doc_labels=None, b=2, t=3, max_chars=4):
    token_ids = rng.integers(2, len(vocabs.token), size=(b, t)).astype(np.int64)
    char_ids = rng.integers(2, len(vocabs.char), size=(b, t, max_chars)).astype(np.int64)
    gaz = rng.integers(2, len(vocabs.gaz), size=(b, t)).astype(np.int64)
    cap = rng.integers(2, len(vocabs.cap), size=(b, t)).astype(np.int64)
    return Batch(token_ids=token_ids, char_ids=char_ids,
                 dense_feats={"gaz": gaz, "cap": cap},
                 lengths=np.full(b, t, dtype=np.int64),
                 mask=np.ones((b, t), dtype=F32), doc_labels=doc_labels)


def build_matmul(rng):
    x, w, b = tensor_of((2, 3), rng), tensor_of((3, 2), rng), tensor_of((2,), rng)
    target = [x, w, b][int(rng.integers(0, 3))]
    return (lambda _: scalarize(ops.linear(x, w, b), np.random.default_rng(5))), target


def build_elementwise(rng):
    x = tensor_of((2, 4), rng)
    y = tensor_of((2, 4), rng)
    chain = {
        0: lambda: ops.tanh(ops.add(x, y)),
        1: lambda: ops.sigmoid(ops.mul(x, y)),
        2: lambda: ops.mul_scalar(ops.add(ops.mul(x, x), y), 0.5),
    }[int(rng.integers(0, 3))]
    # keep relu inputs clear of the kink
    x.data += np.sign(x.data).astype(F32) * F32(0.05)
    if rng.integers(0, 2):
        chain = (lambda inner: (lambda: ops.relu(inner())))(chain)
    target = [x, y][int(rng.integers(0, 2))]
    return (lambda _: scalarize(chain(), np.random.default_rng(6))), target


def build_embedding(rng):
    table = tensor_of((6, 3), rng)
    ids = rng.integers(0, 6, size=(2, 4))
    return (lambda _: scalarize(ops.embedding_lookup(table, ids),
                                np.random.default_rng(8))), table


def build_conv(rng):
    tlen = int(rng.integers(1, 5))
    width = int(rng.integers(1, 4))
    x = tensor_of((2, tlen, 3), rng)
    filt = tensor_of((width, 3, 2), rng, scale=0.7)
    lengths = np.array([tlen, tlen - 1]) if tlen > 1 else None
    target = x if rng.integers(0, 2) else filt
    return (lambda _: scalarize(ops.conv1d_maxpool(x, filt, lengths),
                                np.random.default_rng(9))), target


def build_lstm(rng):
    tlen = int(rng.integers(1, 4))
    h = 2
    x = tensor_of((2, tlen, 3), rng)
    w_ih = tensor_of((3, 4 * h), rng, scale=0.5)
    w_hh = tensor_of((h, 4 * h), rng, scale=0.5)
    bias = tensor_of((4 * h,), rng, scale=0.2)
    lengths = np.array([tlen - 1, tlen]) if tlen > 1 else None
    reverse = bool(rng.integers(0, 2))
    target = [x, w_ih, w_hh, bias][int(rng.integers(0, 4))]
    return (lambda _: scalarize(ops.lstm_seq(x, w_ih, w_hh, bias, lengths, reverse),
                                np.random.default_rng(10))), target


def build_attention(rng):
    tlen = int(rng.integers(1, 5))
    x = tensor_of((2, tlen, 4), rng)
    w1 = tensor_of((4, 3), rng, scale=0.6)
    w2 = tensor_of((3,), rng, scale=0.6)
    lengths = np.array([tlen, tlen - 1]) if tlen > 1 else None
    target = [x, w1, w2][int(rng.integers(0, 3))]
    return (lambda _: scalarize(ops.self_attention(x, w1, w2, lengths),
                                np.random.default_rng(11))), target


def build_cross_entropy(rng):
    logits = tensor_of((3, 4), rng)
    targets = rng.integers(0, 4, size=3)
    mask = np.array([1.0, 1.0, 0.0], dtype=F32) if rng.integers(0, 2) else None
    return (lambda _: ops.softmax_cross_entropy(logits, targets, mask)), logits


def build_char_cnn(rng):
    vocabs = tiny_vocabs()
    emb = TokenEmbedding("embedding",
                         {"word_dim": 0, "char_dim": 2, "gaz_dim": 0, "cap_dim": 0,
                          "char_filter_widths": [2], "char_num_filters": 3,
                          "char_highway_layers": 1},
                         vocabs, np.random.default_rng(int(rng.integers(1 << 31))))
    # central differences are invalid within eps of the relu kink, so give
    # the highway preactivations a wide margin
    bt = emb.named_parameters()["char.hw0.bt"]
    bt.data = bt.data + F32(1.5)
    batch = tiny_batch(vocabs, rng)
    tensors = [p for _, p in sorted(emb.named_parameters().items())]
    target = tensors[int(rng.integers(0, len(tensors)))]
    return (lambda _: scalarize(emb.forward(batch), np.random.default_rng(12))), target


def model_family(attn):
    def build(rng):
        vocabs = tiny_vocabs()
        init = np.random.default_rng(int(rng.integers(1 << 31)))
        emb = TokenEmbedding("embedding",
                             {"word_dim": 4, "char_dim": 0, "gaz_dim": 0,
                              "cap_dim": 0, "char_filter_widths": [2],
                              "char_num_filters": 3, "char_highway_layers": 1},
                             vocabs, init)
        if attn:
            rep = BiLSTMAttnRepresentation(
                "representation", {"hidden_dim": 3, "attention_dim": 2},
                emb.out_dim, init)
        else:
            rep = DocNNRepresentation(
                "representation", {"filter_widths": [2], "num_filters": 4},
                emb.out_dim, init)
        dec = MLPDecoder("decoder", {"hidden_dims": []}, rep.out_dim, 3, init)
        model = SingleTaskModel(emb, rep, dec, DocClassificationOutput())
        labels = rng.integers(0, 3, size=2).astype(np.int64)
        batch = tiny_batch(vocabs, rng, doc_labels=labels)
        tensors = [p for _, p in sorted(model.named_parameters().items())]
        target = tensors[int(rng.integers(0, len(tensors)))]
        return (lambda _: model.forward(batch, compute_loss=True).loss), target
    return build


GRAD_FAMILIES = [
    ("matmul", build_matmul),
    ("elementwise", build_elementwise),
    ("embedding_lookup", build_embedding),
    ("conv1d_maxpool", build_conv),
    ("lstm_seq", build_lstm),
    ("self_attention", build_attention),
    ("softmax_cross_entropy", build_cross_entropy),
    ("char_cnn_highway", build_char_cnn),
    ("docnn_model", model_family(attn=False)),
    ("bilstm_attn_model", model_family(attn=True)),
]


def test_01_gradient_correctness():
    with verdict(1, "gradient correctness"):
        start = time.monotonic()
        for name, build in GRAD_FAMILIES:
            worst = 0.0
            for i in range(20):
                rng = np.random.default_rng(3000 + i)
                f, x = build(rng)
                worst = max(worst, ops.finite_diff_check(f, x, eps=1e-3))
            assert worst < 1e-3, "%s: max relative grad error %.3g" % (name, worst)
        assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 2. export soundness
# ---------------------------------------------------------------------------

ATTN_REP = {"bilstm_attn": {"hidden_dim": 8, "attention_dim": 6}}


def test_02_export_soundness(tmp_path):
    with verdict(2, "export soundness"):
        cases = [
            ("docnn", "doc", {}),
            ("attn", "doc", {"representation": ATTN_REP}),
            ("tagger", "word", {}),
        ]
        for name, kind, extra in cases:
            pipe = make_pipe(tmp_path / name, kind, n_train=32, n_eval=16,
                             epochs=2, **extra)
            train(pipe, ckpt_path=str(tmp_path / name / "m.ckpt"))
            graph = export_pipeline(pipe)
            report = verify_equivalence(pipe, graph, n_samples=100, seed=0)
            assert report.n_samples >= 100, name
            assert report.within(1e-5), (name, report)
        joint = make_pipe(tmp_path / "joint", "joint", n_train=24, n_eval=12,
                          epochs=2)
        train(joint, ckpt_path=str(tmp_path / "joint" / "m.ckpt"))
        for head, graph in export_pipeline(joint).items():
            report = verify_equivalence(joint, graph, n_samples=100, seed=0,
                                        head=head)
            assert report.n_samples >= 100 and report.within(1e-5), head


# ---------------------------------------------------------------------------
# 3. vocabulary baking
# ---------------------------------------------------------------------------

def test_03_vocabulary_baking(tmp_path):
    with verdict(3, "vocabulary baking"):
        pipe = make_pipe(tmp_path, "doc", n_train=24, n_eval=8, embedding={
            "token": {"word_dim": 8, "char_dim": 4, "char_filter_widths": [2],
                      "char_num_filters": 6, "cap_dim": 3}})
        ex = Executor(export_pipeline(pipe))

        rng = np.random.default_rng(7)
        pool = corpora.FILLERS + sorted(corpora.DOC_KEYWORDS.values())
        for i in range(100):
            n = int(rng.integers(1, 9))
            toks = []
            for _ in range(n):
                if rng.integers(0, 3):
                    toks.append(pool[int(rng.integers(0, len(pool)))])
                else:
                    toks.append("".join(chr(ord("a") + int(c))
                                        for c in rng.integers(0, 26, size=5)))
            toks[int(rng.integers(0, n))] = "zzq%d" % i  # guaranteed OOV
            text = " ".join(toks)
            feats = pipe.featurizer.featurize(text)
            batch = single_example_batch(feats, pipe.vocabs, pipe.max_chars)
            eager = pipe.model.forward(batch, compute_loss=False)
            res = run(ex, text)
            assert eager.scores[0].tobytes() == res["scores"].tobytes(), text
            assert int(eager.preds[0]) == int(res["pred"]), text


# ---------------------------------------------------------------------------
# 4. featurizer consistency
# ---------------------------------------------------------------------------

def canonical(feats):
    return (feats.raw_text, repr(feats.tokens),
            tuple(feats.gaz_labels), tuple(feats.cap_labels))


def test_04_featurizer_consistency(tmp_path):
    with verdict(4, "featurizer consistency"):
        pipe = make_pipe(tmp_path, "doc", n_train=16, n_eval=8)
        rng = np.random.default_rng(11)
        alphabet = ("abcdefghijklmnopqrstuvwxyz"
                    "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.,!?-'")
        raws = []
        for _ in range(1000):
            words = []
            for _ in range(int(rng.integers(1, 8))):
                k = int(rng.integers(1, 9))
                words.append("".join(alphabet[int(c)] for c in
                                     rng.integers(0, len(alphabet), size=k)))
            raws.append(" ".join(words))

        tsv = tmp_path / "strings.tsv"
        with open(tsv, "w", encoding="utf-8") as handle:
            for raw in raws:
                handle.write("x\t%s\n" % raw)
        ds = load_tsv(str(tsv), FORMAT_DOC, pipe.featurizer, "train")
        assert len(ds.examples) == 1000
        for ex, raw in zip(ds.examples, raws):
            assert canonical(ex.feats) == canonical(pipe.featurizer.featurize(raw))


# ---------------------------------------------------------------------------
# 5-6. end-to-end learning
# ---------------------------------------------------------------------------

def test_05_doc_classification_learns(tmp_path):
    with verdict(5, "doc classification learns"):
        start = time.monotonic()
        pipe = make_pipe(tmp_path, "doc", n_train=500, n_eval=100, epochs=10,
                         seed=0)
        result = train(pipe, ckpt_path=str(tmp_path / "m.ckpt"))
        assert result.best_score >= 0.99, result.best_score
        assert time.monotonic() - start < 60.0


def test_06_word_tagging_learns(tmp_path):
    with verdict(6, "word tagging learns"):
        pipe = make_pipe(tmp_path, "word", n_train=300, n_eval=60, epochs=15,
                         seed=0)
        result = train(pipe, ckpt_path=str(tmp_path / "m.ckpt"))
        assert result.best_score >= 0.95, result.best_score


# ---------------------------------------------------------------------------
# 7. multi-task sharing
# ---------------------------------------------------------------------------

def test_07_multitask_sharing(tmp_path):
    with verdict(7, "multi-task sharing"):
        pipe = make_pipe(tmp_path / "probe", "joint", n_train=60, n_eval=20,
                         epochs=1, seed=0)
        doc_named = pipe.model.tasks["doc"].named_parameters()
        word_named = pipe.model.tasks["word"].named_parameters()
        all_params = pipe.model.parameters()

        # (a) the shared trunk appears exactly once in the flat parameter list
        assert len({id(p) for p in all_params}) == len(all_params)
        doc_ids = {id(p) for p in doc_named.values()}
        shared_ids = doc_ids & {id(p) for p in word_named.values()}
        assert shared_ids
        assert len(all_params) == len(doc_named) + len(word_named) - len(shared_ids)

        # (b) document-batch steps move the trunk but not word-only parameters
        word_private = {n: p for n, p in word_named.items()
                        if id(p) not in doc_ids}
        assert word_private
        private_before = {n: p.data.tobytes() for n, p in word_private.items()}
        shared_before = {n: p.data.tobytes() for n, p in word_named.items()
                         if id(p) in shared_ids}
        doc_batches = [b for b in pipe.train_batches(0)
                       if pipe.model.task_for(b.task_id) == "doc"][:4]
        assert doc_batches
        for batch in doc_batches:
            loss = pipe.train_loss(batch)
            loss.backward()
            pipe.optimizer.step()
        for name, blob in private_before.items():
            assert word_private[name].data.tobytes() == blob, name
        assert any(p.data.tobytes() != shared_before[n]
                   for n, p in word_named.items() if id(p) in shared_ids)

        # (c) joint training solves both views of the corpus at once
        fresh = make_pipe(tmp_path / "full", "joint", n_train=300, n_eval=60,
                          epochs=20, seed=0)
        result = train(fresh, ckpt_path=str(tmp_path / "full" / "m.ckpt"))
        frames = [rec.metrics["frame_accuracy"] for rec in result.history]
        assert max(frames) >= 0.90, max(frames)


# ---------------------------------------------------------------------------
# 8. latency direction
# ---------------------------------------------------------------------------

def test_08_latency_direction(tmp_path):
    with verdict(8, "latency direction"):
        pipe = make_pipe(tmp_path, "doc", n_train=24, n_eval=8,
                         representation={"bilstm_attn": {"hidden_dim": 16,
                                                         "attention_dim": 12}})
        graph = export_pipeline(pipe)
        ex = Executor(graph)
        rng = np.random.default_rng(42)
        texts = []
        for _ in range(1000):
            words = ["".join(chr(ord("a") + int(c))
                             for c in rng.integers(0, 26,
                                                   size=int(rng.integers(2, 9))))
                     for _ in range(int(rng.integers(3, 10)))]
            texts.append(" ".join(words))

        # one loop times both, alternating which runs first on each request
        reports = bench.latency_reports(
            {"eager": lambda s: pipe.predict(pipe.featurizer.featurize(s)),
             "exported": lambda s: run(ex, s)},
            texts, warmup=50)
        print()
        print(bench.format_reports(reports))
        eager, exported = reports
        for report in reports:
            assert report.p50_ms <= report.p90_ms <= report.p99_ms
        assert exported.p50_ms <= eager.p50_ms, (exported.p50_ms, eager.p50_ms)


# ---------------------------------------------------------------------------
# 9. persistence
# ---------------------------------------------------------------------------

def test_09_persistence(tmp_path):
    with verdict(9, "persistence"):
        pipe = make_pipe(tmp_path, "doc", n_train=16, n_eval=8, epochs=1)
        ckpt = tmp_path / "m.ckpt"
        train(pipe, ckpt_path=str(ckpt))

        blob = ckpt.read_bytes()
        again = tmp_path / "again.ckpt"
        save_checkpoint(str(again), load_checkpoint(str(ckpt)))
        assert again.read_bytes() == blob

        def reject(data, error, loader, path):
            path.write_bytes(data)
            with pytest.raises(error):
                loader(str(path))

        bad = tmp_path / "bad.ckpt"
        flipped = bytearray(blob)
        flipped[len(flipped) // 2] ^= 0xFF
        reject(bytes(flipped), CorruptFile, load_checkpoint, bad)
        reject(blob[:-7], CorruptFile, load_checkpoint, bad)
        bumped = bytearray(blob)
        bumped[4:8] = struct.pack("<I", struct.unpack("<I", blob[4:8])[0] + 1)
        reject(bytes(bumped), VersionMismatch, load_checkpoint, bad)

        gpath = tmp_path / "m.graph"
        save_graph(export_pipeline(pipe), str(gpath))
        gblob = gpath.read_bytes()
        gagain = tmp_path / "again.graph"
        save_graph(load_graph(str(gpath)), str(gagain))
        assert gagain.read_bytes() == gblob

        gbad = tmp_path / "bad.graph"
        gflip = bytearray(gblob)
        gflip[len(gflip) // 2] ^= 0xFF
        reject(bytes(gflip), CorruptGraph, load_graph, gbad)
        reject(gblob[:-5], CorruptGraph, load_graph, gbad)
        gbump = bytearray(gblob)
        gbump[4:8] = struct.pack("<I", struct.unpack("<I", gblob[4:8])[0] + 1)
        reject(bytes(gbump), VersionMismatch, load_graph, gbad)


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------

def test_10_determinism(tmp_path):
    with verdict(10, "determinism"):
        def one_run(subdir):
            pipe = make_pipe(tmp_path / subdir, "doc", n_train=48, n_eval=16,
                             epochs=3, seed=0)
            result = train(pipe, ckpt_path=str(tmp_path / subdir / "m.ckpt"))
            history = [(rec.epoch, rec.train_loss, rec.score, rec.metrics)
                       for rec in result.history]
            return history, serialize(export_pipeline(pipe))

        hist_a, graph_a = one_run("a")
        hist_b, graph_b = one_run("b")
        assert hist_a == hist_b
        assert graph_a == graph_b
