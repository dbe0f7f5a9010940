"""Model stage contracts: shapes, init conventions, sharing."""

import json

import numpy as np
import pytest

import corpora
from textforge import cli, components, kernels, metrics, ops
from textforge.data_handler import (Batch, Example, VocabBundle, batch_examples, make_batches,
                                    single_example_batch)
from textforge.errors import (DimMismatch, IncompatibleShare, MalformedLine,
                              MultiTaskArity, NoStyleSelected, NotUtf8,
                              SchemaViolation, ShapeMismatch)
from textforge.featurizer import CAP_CLASSES, GAZ_NONE, featurize
from textforge.model_zoo import (BiLSTMAttnRepresentation, BiLSTMModule,
                                 BiLSTMTaggerRepresentation,
                                 DocClassificationOutput, DocNNRepresentation,
                                 LayerModule, MLPDecoder, MultiTaskModel, SingleTaskModel,
                                 TokenEmbedding, WordTaggingOutput,
                                 load_pretrained_embeddings)
from textforge.pipeline import Pipeline, instantiate_task, prediction_json
from textforge.registry import parse_task_config
from textforge.tensor import Tensor
from textforge.trainer import train
from textforge.vocab import Vocabulary

F32 = np.float32


def make_vocabs():
    return VocabBundle(
        token=Vocabulary(["alarm", "play", "set", "the"]),
        char=Vocabulary(list("aelmprsty")),
        gaz=Vocabulary([GAZ_NONE, "city"]),
        cap=Vocabulary(list(CAP_CLASSES)),
    )


def emb_config(word=6, char=0, gaz=0, cap=0, widths=(2, 3), filters=5, highway=1):
    return {
        "word_dim": word, "char_dim": char, "gaz_dim": gaz, "cap_dim": cap,
        "char_filter_widths": list(widths), "char_num_filters": filters,
        "char_highway_layers": highway,
    }


def make_batch(vocabs, b=2, t=3, max_chars=4, rng=None, pad_last=0,
               doc_labels=None, word_labels=None):
    rng = rng or np.random.default_rng(3)
    token_ids = rng.integers(2, len(vocabs.token), size=(b, t)).astype(np.int64)
    char_ids = rng.integers(2, len(vocabs.char), size=(b, t, max_chars)).astype(np.int64)
    gaz = rng.integers(2, len(vocabs.gaz), size=(b, t)).astype(np.int64)
    cap = rng.integers(2, len(vocabs.cap), size=(b, t)).astype(np.int64)
    mask = np.ones((b, t), dtype=F32)
    lengths = np.full(b, t, dtype=np.int64)
    if pad_last:
        token_ids[-1, t - pad_last:] = 0
        char_ids[-1, t - pad_last:] = 0
        gaz[-1, t - pad_last:] = 0
        cap[-1, t - pad_last:] = 0
        mask[-1, t - pad_last:] = 0.0
        lengths[-1] = t - pad_last
    return Batch(token_ids=token_ids, char_ids=char_ids,
                 dense_feats={"gaz": gaz, "cap": cap},
                 lengths=lengths, mask=mask,
                 doc_labels=doc_labels, word_labels=word_labels)


def dense_char_forward(self, char_ids, lengths):
    """TokenEmbedding._char_forward as it ran every token row of a batch,
    padding included: the reference for the distinct-row path."""
    # one row of characters per token: [b, t, c] ids -> [b*t, c, cd]
    b, t, c = char_ids.shape
    emb = ops.reshape(ops.embedding_lookup(self.char_table, char_ids),
                      (b * t, c, self.char_dim))
    out = ops.concat([ops.conv1d_maxpool(emb, filt, None) for filt in self.char_conv])
    for layer in self.highway:
        out = ops.highway(out, *layer)
    return ops.reshape(out, (b, t, self.char_out))


# words of make_vocabs' chars, and one ("zoo") of chars it lacks
CHAR_WORDS = ["set", "the", "alarm", "play", "mystery", "tea", "zoo"]


def text_batch(vocabs, texts, max_chars=5, n_tags=3, rng=None):
    """The vectorizer's padded Batch of texts, with seeded word labels."""
    examples = [Example(text, (), None, None, featurize(text)) for text in texts]
    batch = batch_examples(examples, vocabs, max_chars)
    rng = rng or np.random.default_rng(0)
    batch.word_labels = rng.integers(0, n_tags, size=batch.mask.shape) * (batch.mask > 0)
    return batch


def padded_char_batches(vocabs, seed):
    """Seeded padded batches: repeated tokens, one with a zero-length example,
    and one whose valid tokens are all one word."""
    rng = np.random.default_rng(seed)

    def text(n):
        return " ".join(CHAR_WORDS[i] for i in rng.integers(0, len(CHAR_WORDS), size=n))
    word = CHAR_WORDS[int(rng.integers(0, len(CHAR_WORDS)))]
    texts = {
        "repeated": [text(int(n)) for n in rng.integers(1, 7, size=4)] + [text(7)],
        "zero_length": [text(int(rng.integers(1, 5))), "", text(3)],
        "one_word": [" ".join([word] * n) for n in (3, 1, 2)],
    }
    return {case: text_batch(vocabs, rows, rng=rng) for case, rows in texts.items()}


def char_tagger(vocabs, widths, highway, seed=0):
    rng = np.random.default_rng(seed)
    emb = TokenEmbedding("embedding", emb_config(word=3, char=3, cap=2, widths=widths,
                                                 filters=4, highway=highway), vocabs, rng)
    rep = BiLSTMTaggerRepresentation("representation", {"hidden_dim": 3}, emb.out_dim, rng)
    dec = MLPDecoder("decoder", {"hidden_dims": []}, rep.out_dim, 3, rng)
    return SingleTaskModel(emb, rep, dec, WordTaggingOutput())


def embedding_loss_grads(model, batch):
    """The embedding, the loss and every parameter's gradient of one batch."""
    params = model.named_parameters()
    for param in params.values():
        param.grad = None
    emb = model.embedding.forward(batch)
    loss = model.forward(batch).loss
    loss.backward()
    return emb.data, loss.data, {name: p.grad for name, p in params.items()}


class TestTokenEmbedding:
    def test_out_dim_sums_enabled_styles(self):
        vocabs = make_vocabs()
        rng = np.random.default_rng(0)
        emb = TokenEmbedding("embedding", emb_config(word=6, char=2, gaz=2, cap=3), vocabs, rng)
        # word 6 + char 5 filters x 2 widths + gaz 2 + cap 3
        assert emb.out_dim == 6 + 10 + 2 + 3
        out = emb.forward(make_batch(vocabs))
        assert out.shape == (2, 3, emb.out_dim)

    def test_no_style_selected(self):
        with pytest.raises(NoStyleSelected):
            TokenEmbedding("embedding", emb_config(word=0), make_vocabs(),
                           np.random.default_rng(0))

    def test_pad_rows_start_zero(self):
        vocabs = make_vocabs()
        emb = TokenEmbedding("embedding", emb_config(word=4, char=2, gaz=2, cap=2),
                             vocabs, np.random.default_rng(1))
        for pname in ("word.table", "char.table", "gaz.table", "cap.table"):
            table = emb.named_parameters()[pname].data
            assert not table[0].any(), pname
            assert table[1].any(), pname  # unk row is trained, not pinned to zero

    def test_word_only_is_plain_lookup(self):
        vocabs = make_vocabs()
        emb = TokenEmbedding("embedding", emb_config(word=5), vocabs,
                             np.random.default_rng(2))
        batch = make_batch(vocabs)
        out = emb.forward(batch)
        expected = emb.named_parameters()["word.table"].data[batch.token_ids]
        assert np.array_equal(out.data, expected)

    def test_same_seed_same_init(self):
        vocabs = make_vocabs()
        cfg = emb_config(word=4, char=3, gaz=2, cap=2)
        a = TokenEmbedding("e", cfg, vocabs, np.random.default_rng(7))
        b = TokenEmbedding("e", cfg, vocabs, np.random.default_rng(7))
        for name, pa in a.named_parameters().items():
            assert np.array_equal(pa.data, b.named_parameters()[name].data), name

    def test_char_widths_must_be_positive(self):
        # the config schema checks the widths before any module is built
        model = {"embedding": {"token": {"char_dim": 2, "char_filter_widths": [0]}},
                 "representation": {"docnn": {}}, "output": {"doc_classification": {}}}
        doc = {"task": {"doc_classification": {
            "data": {"tsv": {"train_path": "train.tsv", "eval_path": "eval.tsv"}},
            "model": {"single": model}}}}
        with pytest.raises(SchemaViolation, match=r"token\.char_filter_widths: must be >= 1"):
            parse_task_config(json.dumps(doc))

    def test_a_parameter_name_is_held_once(self):
        module = LayerModule("m")
        module.add_param("conv2", np.zeros((2, 1, 1), dtype=F32))
        with pytest.raises(ValueError, match="m already holds a parameter named 'conv2'"):
            module.add_param("conv2", np.ones((2, 1, 1), dtype=F32))
        assert not module.named_parameters()["conv2"].data.any()

    @pytest.mark.parametrize("highway", [0, 1, 2], ids=["hw0", "hw1", "hw2"])
    @pytest.mark.parametrize("widths", [(2,), (2, 3)], ids=["w2", "w2_3"])
    def test_padded_char_cnn_is_the_dense_reference(self, monkeypatch, widths, highway):
        # the embedding at every position and the loss keep their bits; only
        # the char.* gradients are summed in another order
        vocabs = make_vocabs()
        model = char_tagger(vocabs, widths, highway)
        worst = 0.0
        for seed in range(3):
            for case, batch in padded_char_batches(vocabs, seed).items():
                assert not batch.mask.all(), case
                with monkeypatch.context() as patch:
                    patch.setattr(TokenEmbedding, "_char_forward", dense_char_forward)
                    want = embedding_loss_grads(model, batch)
                got = embedding_loss_grads(model, batch)
                for i in (0, 1):
                    assert got[i].dtype == want[i].dtype == F32, case
                    assert got[i].tobytes() == want[i].tobytes(), case
                for name, ref in want[2].items():
                    dev = np.abs(got[2][name] - ref).max() / max(np.abs(ref).max(), 1e-30)
                    if not name.startswith("embedding.char."):
                        assert dev == 0.0, (case, name)
                    assert dev <= 1e-6, (case, name, dev)
                    worst = max(worst, dev)
        print("largest relative char.* gradient deviation: %.3g" % worst)

    def test_unpadded_batches_run_every_token_row(self, tmp_path, monkeypatch, capsys):
        # single-example predict runs the dense char CNN, as the graph does;
        # a padded batch runs its distinct rows and the all-PAD row
        cfg = corpora.word_config(str(tmp_path), n_train=24, n_eval=8, epochs=1,
                                  batch_size=8, embedding={"token": {
                                      "word_dim": 4, "char_dim": 3, "char_filter_widths": [2],
                                      "char_num_filters": 4}})
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        ckpt, graph = str(tmp_path / "model.ckpt"), str(tmp_path / "model.graph")
        assert cli.main(["export", "--model", ckpt, "--out", graph]) == 0
        pipe = instantiate_task(parse_task_config(json.dumps(cfg)))
        rows = []
        conv_maxpool = kernels.conv_maxpool

        def spied(*args, **kwargs):
            rows.append(args[0].shape[0])
            return conv_maxpool(*args, **kwargs)
        monkeypatch.setattr(kernels, "conv_maxpool", spied)
        feats = pipe.featurizer.featurize("no no no")
        pipe.model.forward(single_example_batch(feats, pipe.vocabs, pipe.char_width))
        assert rows == [3]
        rows.clear()
        examples = [Example(text, (), None, None, pipe.featurizer.featurize(text))
                    for text in ("no no no", "paris")]
        batch = batch_examples(examples, pipe.vocabs, pipe.char_width)
        pipe.model.forward(batch, compute_loss=False)
        distinct = {row.tobytes() for row in batch.char_ids[batch.mask > 0]}
        assert rows == [len(distinct) + 1] == [3]

        text_path = tmp_path / "texts.txt"
        text_path.write_text("no no no\n", encoding="utf-8")
        capsys.readouterr()
        printed = []
        for source in (["--graph", graph], ["--ckpt", ckpt]):
            assert cli.main(["predict", *source, "--input", str(text_path)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and len(printed[0].splitlines()) == 1


def test_rows_the_char_conv_sees_in_one_epoch(tmp_path, monkeypatch):
    # a count, not a timing: a padded batch gives the char conv its distinct
    # valid rows and one all-PAD row, an unpadded batch every b*t token row
    cfg = corpora.word_config(str(tmp_path), n_train=41, n_eval=12, epochs=1, batch_size=8,
                              embedding={"token": {"word_dim": 4, "char_dim": 3,
                                                   "char_filter_widths": [2, 3],
                                                   "char_num_filters": 4}})
    pipe = instantiate_task(parse_task_config(json.dumps(cfg)))
    batches = pipe.train_batches(0)  # the tail batch, of one row, is unpadded
    seen = []
    conv_maxpool = kernels.conv_maxpool

    def spied(*args, **kwargs):
        seen.append(args[0].shape[0])
        return conv_maxpool(*args, **kwargs)
    monkeypatch.setattr(kernels, "conv_maxpool", spied)
    for batch in batches:
        pipe.train_loss(batch).backward()
        pipe.optimizer.step()
    want = 0
    for batch in batches:
        b, t, _ = batch.char_ids.shape
        if batch.mask.all():
            want += b * t
        else:
            want += len({row.tobytes() for row in batch.char_ids[batch.mask > 0]}) + 1
    assert {batch.mask.all() for batch in batches} == {False, True}
    # each filter width is one conv call over the same rows
    assert sum(seen) == 2 * want
    assert want < sum(batch.mask.size for batch in batches)


class TestPretrainedEmbeddings:
    def _write(self, tmp_path, lines):
        path = tmp_path / "vectors.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_overlay_and_skip_oov(self, tmp_path):
        vocab = Vocabulary(["alarm", "play"])
        path = self._write(tmp_path, [
            "alarm 1.0 2.0 3.0",
            "zebra 9.0 9.0 9.0",
            "",
            "<pad> 5.0 5.0 5.0",
        ])
        table = load_pretrained_embeddings(path, vocab, 3, np.random.default_rng(0))
        assert table.shape == (4, 3)
        assert table[vocab.index["alarm"]].tolist() == [1.0, 2.0, 3.0]
        assert not table[Vocabulary.PAD_ID].any()  # pad pinned to zero over the file row
        assert table[vocab.index["play"]].any()    # untouched rows keep random init

    def test_malformed_line(self, tmp_path):
        vocab = Vocabulary(["alarm"])
        with pytest.raises(MalformedLine):
            load_pretrained_embeddings(self._write(tmp_path, ["alarm"]), vocab, 3,
                                       np.random.default_rng(0))
        with pytest.raises(MalformedLine):
            load_pretrained_embeddings(self._write(tmp_path, ["alarm 1.0 oops 3.0"]),
                                       vocab, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39", "-1e39"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, value):
        path = self._write(tmp_path, ["alarm 1.0 2.0 3.0", "alarm 1.0 %s 3.0" % value])
        with pytest.raises(MalformedLine, match=r"vectors\.txt line 2: non-finite"):
            load_pretrained_embeddings(path, Vocabulary(["alarm"]), 3,
                                       np.random.default_rng(0))

    def test_largest_float32_is_kept(self, tmp_path):
        big = float(np.finfo(np.float32).max)
        path = self._write(tmp_path, ["alarm %r 0.0 %r" % (big, -big)])
        table = load_pretrained_embeddings(path, Vocabulary(["alarm"]), 3,
                                           np.random.default_rng(0))
        assert table[2].tolist() == [big, 0.0, -big]

    def _vectors(self, tmp_path, words, dim):
        """A vectors file giving word i the values i + 1, i + 1.25, ... ."""
        vectors = {w: (i + 1 + 0.25 * np.arange(dim)).astype(F32) for i, w in enumerate(words)}
        lines = ["%s %s" % (w, " ".join(repr(float(v)) for v in vec))
                 for w, vec in vectors.items()]
        return self._write(tmp_path, lines), vectors

    def test_config_pretrained_path_warm_starts_the_word_table(self, tmp_path):
        path, vectors = self._vectors(tmp_path, ["wake", "play", "zebra", "<pad>"], 4)

        def word_table(pretrained_path):
            cfg = corpora.doc_config(str(tmp_path), n_train=20, n_eval=5, embedding={
                "token": {"word_dim": 4, "pretrained_path": pretrained_path}})
            pipe = instantiate_task(parse_task_config(corpora.as_text(cfg)))
            return pipe.vocabs.token, pipe.model.embedding.word_table.data

        vocab, table = word_table(path)
        _, init = word_table("")
        from_file = [vocab.index[w] for w in ("wake", "play")]
        assert "zebra" not in vocab.index
        for w in ("wake", "play"):
            assert table[vocab.index[w]].tolist() == vectors[w].tolist()
        rest = [i for i in range(1, len(vocab)) if i not in from_file]
        np.testing.assert_array_equal(table[rest], init[rest])
        assert not table[Vocabulary.PAD_ID].any()

    def test_joint_heads_share_one_pretrained_table(self, tmp_path):
        path, vectors = self._vectors(tmp_path, ["wake", "paris"], 24)
        cfg = corpora.joint_config(str(tmp_path), n_train=20, n_eval=5)
        cfg["task"]["joint_doc_word"]["model"]["joint"]["embedding"]["token"][
            "pretrained_path"] = path
        pipe = instantiate_task(parse_task_config(corpora.as_text(cfg)))
        doc, word = (pipe.model.tasks[h].embedding.word_table for h in ("doc", "word"))
        assert doc is word
        for w, vec in vectors.items():
            assert doc.data[pipe.vocabs.token.index[w]].tolist() == vec.tolist()

    def test_dim_mismatch(self, tmp_path):
        vocab = Vocabulary(["alarm"])
        with pytest.raises(DimMismatch):
            load_pretrained_embeddings(self._write(tmp_path, ["alarm 1.0 2.0"]), vocab, 3,
                                       np.random.default_rng(0))

    def test_non_utf8_file_names_its_path(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_bytes(b"caf\xe9 1.0 2.0 3.0\n")
        with pytest.raises(NotUtf8, match="vectors.txt is not UTF-8"):
            load_pretrained_embeddings(str(path), Vocabulary(["alarm"]), 3,
                                       np.random.default_rng(0))


def _emb_tensor(rng, b, t, d):
    return Tensor((rng.standard_normal((b, t, d)) * 0.5).astype(F32))


class TestRepresentations:
    def test_docnn_shape_and_padding_invariance(self):
        rng = np.random.default_rng(4)
        rep = DocNNRepresentation("rep", {"filter_widths": [2, 3], "num_filters": 4}, 5, rng)
        assert rep.out_dim == 8
        emb = _emb_tensor(rng, 1, 3, 5)
        out = rep.forward(emb, None)
        padded = Tensor(np.concatenate([emb.data, np.zeros((1, 2, 5), dtype=F32)], axis=1))
        out_p = rep.forward(padded, np.array([3]))
        assert np.array_equal(out.data, out_p.data)

    def test_docnn_empty_sequence_is_zero(self):
        rep = DocNNRepresentation("rep", {"filter_widths": [2], "num_filters": 4}, 5,
                                  np.random.default_rng(4))
        out = rep.forward(Tensor(np.zeros((2, 0, 5), dtype=F32)), None)
        assert out.shape == (2, 4)
        assert not out.data.any()

    def test_bilstm_attn_shape_and_padding_invariance(self):
        rng = np.random.default_rng(5)
        rep = BiLSTMAttnRepresentation("rep", {"hidden_dim": 3, "attention_dim": 2}, 4, rng)
        assert rep.out_dim == 6
        emb = _emb_tensor(rng, 1, 4, 4)
        out = rep.forward(emb, None)
        padded = Tensor(np.concatenate([emb.data, np.zeros((1, 3, 4), dtype=F32)], axis=1))
        out_p = rep.forward(padded, np.array([4]))
        assert out.shape == (1, 6)
        assert np.array_equal(out.data, out_p.data)

    def test_tagger_shape_and_masked_tail(self):
        rng = np.random.default_rng(6)
        rep = BiLSTMTaggerRepresentation("rep", {"hidden_dim": 3}, 4, rng)
        emb = _emb_tensor(rng, 2, 5, 4)
        out = rep.forward(emb, np.array([5, 3]))
        assert out.shape == (2, 5, 6)
        # padded steps hold zeros in both halves
        assert out.data[1, 3:].tobytes() == np.zeros((2, 6), dtype=F32).tobytes()
        # padding invariance at fixed batch shape: the valid prefix is bitwise
        # unaffected by extra padded steps
        short = rep.forward(Tensor(emb.data[:, :3]), None)
        assert np.array_equal(out.data[1, :3], short.data[1])

    def test_tagger_empty_sequence(self):
        rep = BiLSTMTaggerRepresentation("rep", {"hidden_dim": 3}, 4,
                                         np.random.default_rng(6))
        out = rep.forward(Tensor(np.zeros((2, 0, 4), dtype=F32)), None)
        assert out.shape == (2, 0, 6)

    def test_input_dim_checked(self):
        rep = DocNNRepresentation("rep", {"filter_widths": [2], "num_filters": 4}, 5,
                                  np.random.default_rng(4))
        with pytest.raises(ShapeMismatch):
            rep.forward(Tensor(np.zeros((1, 3, 7), dtype=F32)), None)

    def test_forget_gate_bias_starts_at_one(self):
        mod = BiLSTMModule("bilstm", {"hidden_dim": 4}, 3, np.random.default_rng(0))
        for direction in ("fwd", "bwd"):
            bias = mod.named_parameters()["%s.bias" % direction].data
            assert bias[4:8].tolist() == [1.0] * 4
            assert not bias[:4].any() and not bias[8:].any()


class TestMLPDecoder:
    def test_single_affine_when_no_hidden(self):
        dec = MLPDecoder("decoder", {"hidden_dims": []}, 4, 3, np.random.default_rng(0))
        names = set(dec.named_parameters())
        assert names == {"w0", "b0"}
        out = dec.forward(Tensor(np.ones((2, 4), dtype=F32)))
        assert out.shape == (2, 3)

    def test_hidden_stack_shapes(self):
        dec = MLPDecoder("decoder", {"hidden_dims": [6, 5]}, 4, 3, np.random.default_rng(0))
        shapes = {n: p.shape for n, p in dec.named_parameters().items()}
        assert shapes["w0"] == (4, 6)
        assert shapes["w1"] == (6, 5)
        assert shapes["w2"] == (5, 3)
        # works on sequence logits too
        out = dec.forward(Tensor(np.ones((2, 7, 4), dtype=F32)))
        assert out.shape == (2, 7, 3)

    def test_input_dim_checked(self):
        dec = MLPDecoder("decoder", {"hidden_dims": []}, 4, 3, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            dec.forward(Tensor(np.ones((2, 5), dtype=F32)))


class TestOutputLayers:
    def test_doc_output(self):
        logits = Tensor(np.array([[2.0, 1.0, -1.0], [0.0, 3.0, 0.0]], dtype=F32))
        out = DocClassificationOutput().forward(logits, None, np.ones((2, 1), dtype=F32))
        assert out.preds.tolist() == [0, 1]
        np.testing.assert_allclose(out.scores.sum(axis=-1), 1.0, atol=1e-6)
        assert out.loss is None
        with_loss = DocClassificationOutput().forward(logits, np.array([0, 1]), None)
        assert with_loss.loss is not None and with_loss.loss.data.size == 1

    def test_word_output_ignores_padded_positions(self):
        rng = np.random.default_rng(9)
        core = rng.standard_normal((1, 3, 2)).astype(F32)
        tail = rng.standard_normal((1, 2, 2)).astype(F32) * 100
        labels = np.array([[0, 1, 0]], dtype=np.int64)
        out = WordTaggingOutput().forward(Tensor(core), labels, np.ones((1, 3), dtype=F32))
        padded_logits = np.concatenate([core, tail], axis=1)
        padded_labels = np.array([[0, 1, 0, 0, 0]], dtype=np.int64)
        mask = np.array([[1, 1, 1, 0, 0]], dtype=F32)
        out_p = WordTaggingOutput().forward(Tensor(padded_logits), padded_labels, mask)
        assert float(out.loss.data) == float(out_p.loss.data)

    def test_rank_checked(self):
        with pytest.raises(ShapeMismatch):
            DocClassificationOutput().forward(Tensor(np.zeros((1, 2, 3), dtype=F32)), None, None)
        with pytest.raises(ShapeMismatch):
            WordTaggingOutput().forward(Tensor(np.zeros((1, 2), dtype=F32)), None, None)


def build_doc_model(vocabs, rng, n_classes=3):
    emb = TokenEmbedding("embedding", emb_config(word=4), vocabs, rng)
    rep = DocNNRepresentation("representation",
                              {"filter_widths": [2], "num_filters": 4}, emb.out_dim, rng)
    dec = MLPDecoder("decoder", {"hidden_dims": []}, rep.out_dim, n_classes, rng)
    return SingleTaskModel(emb, rep, dec, DocClassificationOutput())


class TestSingleTaskModel:
    def test_stage_wiring_and_param_paths(self):
        vocabs = make_vocabs()
        model = build_doc_model(vocabs, np.random.default_rng(0))
        names = set(model.named_parameters())
        assert "embedding.word.table" in names
        assert "representation.conv2" in names
        assert "decoder.w0" in names
        batch = make_batch(vocabs, doc_labels=np.array([0, 1], dtype=np.int64))
        out = model.forward(batch)
        assert out.preds.shape == (2,)
        assert out.scores.shape == (2, 3)
        assert out.loss is not None

    def test_sequence_shape_disagreement_rejected(self):
        vocabs = make_vocabs()
        rng = np.random.default_rng(0)
        emb = TokenEmbedding("embedding", emb_config(word=4), vocabs, rng)
        rep = DocNNRepresentation("representation",
                                  {"filter_widths": [2], "num_filters": 4}, emb.out_dim, rng)
        dec = MLPDecoder("decoder", {"hidden_dims": []}, rep.out_dim, 2, rng)
        with pytest.raises(ShapeMismatch):
            SingleTaskModel(emb, rep, dec, WordTaggingOutput())

    def test_compute_loss_false_skips_loss(self):
        vocabs = make_vocabs()
        model = build_doc_model(vocabs, np.random.default_rng(0))
        batch = make_batch(vocabs, doc_labels=np.array([0, 1], dtype=np.int64))
        assert model.forward(batch, compute_loss=False).loss is None


def build_joint(vocabs, seed=0, word_hidden=3):
    """The joint model as the product builds it, from a parsed config."""
    text = json.dumps({"task": {"joint_doc_word": {
        "data": {"tsv_pair": {"train_paths": ["t0", "t1"], "eval_paths": ["e0", "e1"]}},
        "model": {"joint": {
            "embedding": {"token": {"word_dim": 4, "char_dim": 0}},
            "doc_representation": {"bilstm_attn": {"hidden_dim": 3, "attention_dim": 2}},
            "word_representation": {"bilstm_tagger": {"hidden_dim": word_hidden}},
        }},
    }}})
    model_cfg = parse_task_config(text).child("model")
    return components.build_model(model_cfg, components.JOINT_TASK, vocabs,
                                  {"doc": ["a", "b", "c"], "word": ["O", "S"]},
                                  np.random.default_rng(seed))


class TestMultiTask:
    def test_shared_modules_are_same_object(self):
        vocabs = make_vocabs()
        model = build_joint(vocabs)
        doc, word = model.tasks["doc"], model.tasks["word"]
        assert doc.embedding is word.embedding
        assert doc.representation.bilstm is word.representation.bilstm
        assert doc.representation is not word.representation
        assert doc.decoder is not word.decoder

    def test_parameters_count_shared_once(self):
        vocabs = make_vocabs()
        model = build_joint(vocabs)
        named = model.named_parameters()
        assert len({id(p) for p in named.values()}) == len(named)
        assert model.parameters() == list(named.values())
        # the shared trunk is named under the first head only, in walk order
        doc, word = model.tasks["doc"], model.tasks["word"]
        assert list(named) == (["doc." + n for n in doc.named_parameters()]
                               + ["word." + n for n in word.named_parameters()
                                  if not n.startswith(("embedding.", "representation.bilstm."))])
        assert named["doc.embedding.word.table"] is word.embedding.word_table
        assert named["doc.representation.bilstm.fwd.w_ih"] is word.named_parameters()[
            "representation.bilstm.fwd.w_ih"]

    def test_doc_loss_reaches_trunk_not_word_head(self):
        vocabs = make_vocabs()
        model = build_joint(vocabs)
        batch = make_batch(vocabs, doc_labels=np.array([0, 1], dtype=np.int64))
        batch.task_id = 0
        name, out = model.forward(batch)
        assert name == "doc"
        out.loss.backward()
        named = model.named_parameters()
        assert named["doc.embedding.word.table"].grad is not None
        assert named["word.decoder.w0"].grad is None
        assert named["doc.representation.bilstm.fwd.w_ih"].grad is not None  # shared trunk

    def test_incompatible_share_on_config_diff(self):
        with pytest.raises(IncompatibleShare):
            build_joint(make_vocabs(), word_hidden=5)  # different trunk width

    def test_arity_checked(self):
        vocabs = make_vocabs()
        doc = build_doc_model(vocabs, np.random.default_rng(0))
        with pytest.raises(MultiTaskArity):
            MultiTaskModel({"doc": doc}, {})

    def test_task_dispatch_and_weights(self):
        vocabs = make_vocabs()
        model = build_joint(vocabs)
        assert model.task_for(0) == "doc"
        assert model.task_for(1) == "word"
        assert model.loss_weights == {"doc": 1.0, "word": 1.0}
        batch = make_batch(vocabs, word_labels=np.zeros((2, 3), dtype=np.int64))
        batch.task_id = 1
        name, out = model.forward(batch)
        assert name == "word"
        assert out.preds.shape == (2, 3)


def joint_pipe(dirpath, epochs=1):
    """A seeded joint pipeline on a small corpus, untrained."""
    cfg = corpora.joint_config(str(dirpath), n_train=24, n_eval=12, epochs=epochs)
    return instantiate_task(parse_task_config(json.dumps(cfg)))


def per_head_predict(pipe, text):
    """The joint prediction JSON composed from each head's own full forward."""
    batch = single_example_batch(pipe.featurizer.featurize(text), pipe.vocabs, pipe.char_width)
    doc = pipe.model.tasks["doc"].forward(batch, compute_loss=False)
    word = pipe.model.tasks["word"].forward(batch, compute_loss=False)
    result = prediction_json(components.DOC_TASK, pipe.labels["doc"], doc.preds[0], doc.scores[0])
    result["tags"] = prediction_json(components.WORD_TASK, pipe.labels["word"],
                                     word.preds[0], word.scores[0])["tags"]
    return result


def per_head_evaluate(pipe):
    """The joint evaluation with one full forward per head and batch: eval
    source 0 runs through both heads, source 1 through the word head."""
    batches = [make_batches(full, pipe.settings.batch_size) for full in pipe._vectorized("eval")]
    doc, word = pipe.model.tasks["doc"], pipe.model.tasks["word"]
    n_labels, n_tags = len(pipe.labels["doc"]), len(pipe.labels["word"])
    doc_counts = hits = 0
    for batch in batches[0]:
        preds = doc.forward(batch, compute_loss=False).preds
        doc_counts = doc_counts + metrics.confusion(batch.doc_labels, preds, n_labels)
        tags = word.forward(batch, compute_loss=False).preds
        hits += metrics.frame_hits(batch.doc_labels, preds, batch.word_labels, tags, batch.mask)
    tag_counts = 0
    for batch in batches[1]:
        keep = batch.mask > 0
        tags = word.forward(batch, compute_loss=False).preds
        tag_counts = tag_counts + metrics.confusion(batch.word_labels[keep], tags[keep], n_tags)
    doc_accuracy, _ = metrics.scores(doc_counts)
    _, word_macro_f1 = metrics.scores(tag_counts)
    return ((doc_accuracy + word_macro_f1) / 2.0,
            {"doc_accuracy": doc_accuracy, "word_macro_f1": word_macro_f1,
             "frame_accuracy": hits / sum(batch.size for batch in batches[0])})


class TestJointOneTrunk:
    """Eager joint predict and evaluate run the shared embedding + BiLSTM once
    per example, with the arithmetic of one full forward per head."""

    TEXTS = {"unpadded": "set an alarm for seven", "oov": "zqxv blorft wubble", "empty": ""}

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        pipe = joint_pipe(tmp_path_factory.mktemp("joint"), epochs=2)
        train(pipe)
        return pipe

    @pytest.mark.parametrize("kind", sorted(TEXTS))
    def test_predict_is_the_per_head_json_from_one_trunk_pass(self, trained, monkeypatch,
                                                              kind):
        text = self.TEXTS[kind]
        calls = []
        lstm_seq = kernels.lstm_seq

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return lstm_seq(*args, **kwargs)
        monkeypatch.setattr(kernels, "lstm_seq", counted)
        got = json.dumps(trained.predict(trained.featurizer.featurize(text)))
        n_tokens = len(trained.featurizer.featurize(text).tokens)
        # one BiLSTM pass is two directions; a text with no tokens runs one
        # pass over zero steps, whose states the kernels give as [1, 0, h]
        assert [shape[:2] for shape in calls] == [(1, n_tokens)] * 2
        calls.clear()
        assert got == json.dumps(per_head_predict(trained, text))
        assert len(calls) == 4

    def test_forward_all_is_each_heads_forward(self, trained):
        batch = make_batches(trained._vectorized("eval")[0], 5)[0]
        outs = trained.model.forward_all(batch)
        assert list(outs) == ["doc", "word"]
        for name, out in outs.items():
            want = trained.model.tasks[name].forward(batch, compute_loss=False)
            assert out.loss is None
            assert np.array_equal(out.preds, want.preds)
            assert np.array_equal(out.scores, want.scores)

    def test_evaluate_equals_the_per_head_collection(self, trained):
        assert trained.evaluate() == per_head_evaluate(trained)

    def test_seeded_checkpoint_bytes_do_not_depend_on_the_trunk_sharing(self, tmp_path,
                                                                         monkeypatch):
        one = tmp_path / "one.ckpt"
        train(joint_pipe(tmp_path, epochs=2), ckpt_path=str(one))
        monkeypatch.setattr(Pipeline, "evaluate", per_head_evaluate)
        per_head = tmp_path / "per_head.ckpt"
        train(joint_pipe(tmp_path, epochs=2), ckpt_path=str(per_head))
        assert one.read_bytes() == per_head.read_bytes()
