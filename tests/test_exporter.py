"""Tracing eager models into static graphs and proving the two agree."""

import hashlib
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpora
from textforge import exporter, ops
from textforge.components import DOC_TASK, WORD_TASK
from textforge.data_handler import single_example_batch
from textforge.errors import EmptySampleSet, NotUtf8, UnsupportedModule
from textforge.exporter import (EquivalenceReport, export_model,
                                export_pipeline, verify_equivalence)
from textforge.featurizer import featurize
from textforge.graph import Executor, run, serialize
from textforge.model_zoo import MLPDecoder
from textforge.pipeline import instantiate_task, restore_pipeline
from textforge.registry import parse_task_config
from textforge.tensor import Tensor
from textforge.trainer import derive_rng, load_checkpoint, train
from textforge.vocab import Vocabulary


def make_pipe(tmp_path, kind="doc", **overrides):
    build = {"doc": corpora.doc_config, "word": corpora.word_config,
             "joint": corpora.joint_config}[kind]
    cfg = build(str(tmp_path), n_train=16, n_eval=8, **overrides)
    return instantiate_task(parse_task_config(json.dumps(cfg)))


def first_drawn_word_row(pipe, seed, n=20):
    """The word-table row of the first in-vocabulary word among the n texts
    verify_equivalence checks with this seed, and how many texts reach it."""
    texts = exporter.sample_texts(pipe.vocabs.token, n, derive_rng(seed, 2))
    for i, text in enumerate(texts):
        for token in pipe.featurizer.featurize(text).token_texts():
            row = pipe.vocabs.token.lookup(token)
            if row != Vocabulary.UNK_ID:
                return row, i + 1
    raise AssertionError("no checked text holds an in-vocabulary word")


def with_nan_row(graph, name, row):
    tampered = graph.consts[name].copy()  # the const is the model's own array
    tampered[row] = np.nan
    graph.consts[name] = tampered
    return graph


RICH_EMBEDDING = {"token": {"word_dim": 8, "char_dim": 4,
                            "char_filter_widths": [2], "char_num_filters": 6,
                            "cap_dim": 3}}


class TestLoweringShape:
    def test_docnn_opcode_trace(self, tmp_path):
        pipe = make_pipe(tmp_path)
        graph = export_model(pipe.model, pipe.featurizer.settings,
                             pipe.labels["doc"], DOC_TASK, pipe.vocabs)
        assert [op.opcode for op in graph.ops] == [
            "LookupTokens", "EmbedGather",
            "Conv1DMaxPool", "Conv1DMaxPool", "Concat",
            "MatMulAdd",
            "Softmax", "ArgMax",
        ]
        assert [op.output for op in graph.ops] == ["0", "1", "2", "3", "4", "5",
                                                   "scores", "pred"]
        assert graph.ops[0].inputs == ("tokens",)
        # pred and scores are the ArgMax and the Softmax of the logits
        assert graph.ops[-2].inputs == graph.ops[-1].inputs == ("5",)

    def test_baked_trace_prepends_lookups(self, tmp_path):
        pipe = make_pipe(tmp_path)
        graph = export_pipeline(pipe)
        assert graph.ops[0].opcode == "LookupTokens"
        assert graph.ops[0].inputs == ("tokens",)
        assert graph.vocabs["token"] is pipe.vocabs.token

    def test_attrs_carry_task_and_labels(self, tmp_path):
        pipe = make_pipe(tmp_path)
        graph = export_pipeline(pipe)
        assert graph.attrs["task"] == DOC_TASK
        assert graph.attrs["labels"] == pipe.labels["doc"]
        assert graph.attrs["lowercase"] is True
        assert graph.attrs["max_chars"] == pipe.max_chars

    def test_multi_style_inputs(self, tmp_path):
        pipe = make_pipe(tmp_path, embedding=RICH_EMBEDDING)
        graph = export_model(pipe.model, pipe.featurizer.settings,
                             pipe.labels["doc"], DOC_TASK, pipe.vocabs)
        # each lookup is traced where its style's forward first reads the ids;
        # a traced op's slot is its index in the op list
        lookups = [(i, op.opcode, op.inputs, op.output) for i, op in enumerate(graph.ops)
                   if op.opcode.startswith("Lookup")]
        assert lookups == [(0, "LookupTokens", ("tokens",), "0"),
                           (2, "LookupChars", ("tokens",), "2"),
                           (6, "LookupTokens", ("cap_labels",), "6")]

    def test_const_names_are_parameter_paths(self, tmp_path):
        pipe = make_pipe(tmp_path)
        graph = export_pipeline(pipe)
        named = pipe.model.named_parameters()
        assert set(graph.consts) <= set(named)
        for name, value in graph.consts.items():
            assert np.array_equal(value, named[name].data), name

    def test_non_single_task_model_rejected(self, tmp_path):
        pipe = make_pipe(tmp_path, kind="joint")
        with pytest.raises(UnsupportedModule):
            export_model(pipe.model, pipe.featurizer.settings, pipe.labels["doc"],
                         DOC_TASK, pipe.vocabs)


class TestGoldenBytes:
    """Serialized baked graphs of seeded, untrained pipelines, pinned by hash.

    A change to tracing, baking or the container format shows up here even
    when the graph still runs and matches eager inference.
    """

    # every embedding style, two char widths (char_cat) and two highway
    # layers, a single-width docnn (no Concat) and a hidden decoder layer (Relu)
    ALL_STAGES = {
        "embedding": {"token": {"word_dim": 8, "char_dim": 4, "char_filter_widths": [2, 3],
                                "char_num_filters": 5, "char_highway_layers": 2,
                                "gaz_dim": 3, "cap_dim": 2}},
        "representation": {"docnn": {"filter_widths": [2], "num_filters": 7}},
        "decoder": {"mlp": {"hidden_dims": [6]}},
    }

    GOLDEN = {
        "doc": "8920dde18729e037b7afb1201433a270b58e3caa3118b7c57c539df2c739a149",
        "word": "808d3cfb303e0949dc5c096ed32fd3ebff10f79172e4e3ea2387d3e1228387c1",
        "joint.doc": "9246c3b2677e7c4de9fbac5bcc3094e72c2a10f4a15136ed14dfa60ce7b2df76",
        "joint.word": "c7b30a0c6ca153bbe1b28a8bfcc1bb9df9be837bc49fd6e90bef69761f5eee34",
        "doc.all_stages": "ba16aab28ce4b06d9351913a55d59bcc26a21faac97b48bde11a709a14d48708",
    }

    @classmethod
    def graphs(cls, root):
        """The pinned graphs by name, each from a fresh pipeline under root."""
        def pipe(name, kind=None, **overrides):
            (root / name).mkdir()
            return make_pipe(root / name, kind=kind or name, **overrides)

        graphs = {"doc": export_pipeline(pipe("doc")),
                  "word": export_pipeline(pipe("word", embedding=RICH_EMBEDDING)),
                  "doc.all_stages": export_pipeline(pipe("doc.all_stages", kind="doc",
                                                         **cls.ALL_STAGES))}
        joint = export_pipeline(pipe("joint"))
        graphs.update({"joint." + head: g for head, g in joint.items()})
        return graphs

    def test_graph_bytes_are_pinned(self, tmp_path):
        digests = {name: hashlib.sha256(serialize(g)).hexdigest()
                   for name, g in self.graphs(tmp_path).items()}
        assert digests == self.GOLDEN


class TestTrace:
    """What the tracer accepts: the forward of an unpadded batch of one, whose
    every value is a parameter, an id array of the batch or a traced op's."""

    def test_graph_does_not_depend_on_the_traced_text(self, tmp_path, monkeypatch):
        blobs = []
        for text, n_tokens in (("", 0), ("one", 1), ("a b c d e f g", 7)):
            assert len(featurize(text).tokens) == n_tokens
            monkeypatch.setattr(exporter, "TRACE_TEXT", text)
            (tmp_path / str(n_tokens)).mkdir()
            graphs = TestGoldenBytes.graphs(tmp_path / str(n_tokens))
            blobs.append({name: serialize(g) for name, g in graphs.items()})
        assert len(blobs[0]) == 5
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("char_dim", [0, 3])
    def test_only_a_model_that_embeds_chars_traces_a_char_block(self, tmp_path, monkeypatch,
                                                                 char_dim):
        pipe = make_pipe(tmp_path, embedding={"token": {"word_dim": 8, "char_dim": char_dim}})
        widths = []

        def spy(feats, vocabs, char_width):
            widths.append(char_width)
            return single_example_batch(feats, vocabs, char_width)
        monkeypatch.setattr(exporter, "single_example_batch", spy)
        graph = export_pipeline(pipe)
        assert widths == [pipe.max_chars if char_dim else 0]
        assert graph.attrs["max_chars"] == pipe.max_chars

    @pytest.mark.parametrize("kind,overrides", [
        ("doc", {}),
        ("word", {}),
        ("doc", {"representation": {"bilstm_attn": {"hidden_dim": 4, "attention_dim": 3}}}),
    ], ids=["conv", "lstm", "attention"])
    def test_padded_mask_is_refused(self, tmp_path, monkeypatch, kind, overrides):
        pipe = make_pipe(tmp_path, kind=kind, **overrides)

        def padded(*args):
            batch = single_example_batch(*args)
            batch.lengths[0] -= 1
            return batch
        monkeypatch.setattr(exporter, "single_example_batch", padded)
        with pytest.raises(UnsupportedModule, match="padded batch"):
            export_pipeline(pipe)
        assert ops.trace_hook is None

    def test_reshape_beyond_the_batch_axis_is_refused(self, tmp_path, monkeypatch):
        pipe = make_pipe(tmp_path)
        forward = MLPDecoder.forward

        def transposed(self, rep):
            # [1, f] -> [f, 1] -> [1, f]: the same values, but the first
            # reshape moves more than a batch axis of one
            return forward(self, ops.reshape(ops.reshape(rep, rep.shape[::-1]), rep.shape))
        monkeypatch.setattr(MLPDecoder, "forward", transposed)
        assert pipe.predict(pipe.featurizer.featurize("wake me")) is not None
        with pytest.raises(UnsupportedModule, match="more than the batch axis"):
            export_pipeline(pipe)

    def test_value_made_outside_ops_is_refused(self, tmp_path, monkeypatch):
        pipe = make_pipe(tmp_path)
        forward = MLPDecoder.forward
        monkeypatch.setattr(MLPDecoder, "forward",
                            lambda self, rep: forward(self, Tensor(rep.data)))
        with pytest.raises(UnsupportedModule, match="no traced op made"):
            export_pipeline(pipe)


class TestParameterLayout:
    """The parameter walk of seeded, untrained models, pinned by hash.

    Checkpoints, optimizer state and graph const names all read
    named_parameters(); a change to its names, order, shapes or init draws
    shows up here. The second digest is of the names alone.
    """

    ALL_STYLES = {"token": {"word_dim": 8, "char_dim": 4, "char_filter_widths": [2],
                            "char_num_filters": 6, "gaz_dim": 5, "cap_dim": 3}}

    GOLDEN = {
        "doc": ("ea1041e91714e099a9c85814722138587c57ed72d9a178d068a986330a02491b",
                "1786827058c8febd87283fe6507e006bc8f01b4639fe967f106fe64d59995ef9"),
        "word": ("871f4a8413b374de814036f51d64a3302153fe720c62dd777f3bd56bfdf4401e",
                 "1d12d2b52ed5c38a087cdbf10a1dfbf59dab8a139b30232542781df5b469cd05"),
        "joint": ("99f0197e29f0421bb69d849844b057949ee6c53cbe6bad3c88e4b61765280b59",
                  "7415fc40b6bcb06cbb06440a6665aab32c2863716f43156dbc2b36c422109804"),
    }

    @staticmethod
    def digests(model):
        named = model.named_parameters()
        assert len({id(p) for p in named.values()}) == len(named)  # each parameter once
        walk = hashlib.sha256()
        for name, param in named.items():
            walk.update(("%s %s\n" % (name, param.data.shape)).encode())
            walk.update(param.data.tobytes())
        unique = hashlib.sha256("\n".join(named).encode())
        return walk.hexdigest(), unique.hexdigest()

    def test_parameter_walk_is_pinned(self, tmp_path):
        overrides = {"doc": {}, "word": {"embedding": self.ALL_STYLES}, "joint": {}}
        digests = {}
        for kind, extra in overrides.items():
            (tmp_path / kind).mkdir()
            digests[kind] = self.digests(make_pipe(tmp_path / kind, kind=kind, **extra).model)
        assert digests == self.GOLDEN


def test_a_lone_surrogate_is_not_utf8(tmp_path):
    """A str that UTF-8 cannot encode is an input error at every entry point
    that featurizes: no decoded input holds one, but a caller's str can."""
    pipe = make_pipe(tmp_path)
    executor = Executor(export_pipeline(pipe))
    text = "wake me caf\u00e9 a\ud800b"
    entry_points = {"featurize": featurize,
                    "graph.run": lambda t: run(executor, t),
                    "Pipeline.predict": lambda t: pipe.predict(pipe.featurizer.featurize(t))}
    for name, call in entry_points.items():
        with pytest.raises(NotUtf8, match="surrogates not allowed"):
            call(text)
        assert call(text.replace("\ud800", "")), name


class TestEquivalence:
    @pytest.mark.parametrize("kind,rep_trace", [
        ("doc", None),
        ("word", ["EmbedGather", "LSTMSeq", "LSTMSeq", "Concat",
                  "MatMulAdd", "Softmax", "ArgMax"]),
    ])
    def test_untrained_pipeline_matches_bitwise(self, tmp_path, kind, rep_trace):
        pipe = make_pipe(tmp_path, kind=kind)
        graph = export_pipeline(pipe)
        if rep_trace:
            body = [op.opcode for op in graph.ops if not op.opcode.startswith("Lookup")]
            assert body == rep_trace
        report = verify_equivalence(pipe, graph, n_samples=10, seed=1)
        assert report.n_samples == 10
        assert report.argmax_agree
        assert report.max_abs_dev == 0.0

    def test_attention_head_matches_bitwise(self, tmp_path):
        pipe = make_pipe(tmp_path, representation={
            "bilstm_attn": {"hidden_dim": 8, "attention_dim": 6}})
        graph = export_pipeline(pipe)
        opcodes = [op.opcode for op in graph.ops]
        assert "SelfAttention" in opcodes
        report = verify_equivalence(pipe, graph, n_samples=10, seed=2)
        assert report.argmax_agree and report.max_abs_dev == 0.0

    def test_char_and_cap_styles_match_bitwise(self, tmp_path):
        pipe = make_pipe(tmp_path, embedding=RICH_EMBEDDING)
        graph = export_pipeline(pipe)
        opcodes = [op.opcode for op in graph.ops]
        assert "Highway" in opcodes and "LookupChars" in opcodes
        report = verify_equivalence(pipe, graph, n_samples=10, seed=3)
        assert report.argmax_agree and report.max_abs_dev == 0.0

    def test_joint_heads_verify_and_share_trunk_consts(self, tmp_path):
        pipe = make_pipe(tmp_path, kind="joint")
        graphs = export_pipeline(pipe)
        assert set(graphs) == {"doc", "word"}
        for head, task in (("doc", DOC_TASK), ("word", WORD_TASK)):
            assert graphs[head].attrs["task"] == task
            report = verify_equivalence(pipe, graphs[head], n_samples=8,
                                        seed=5, head=head)
            assert report.argmax_agree and report.max_abs_dev == 0.0, head
        shared_prefixes = ("embedding.", "representation.bilstm.")
        shared_doc = {n: v for n, v in graphs["doc"].consts.items()
                      if n.startswith(shared_prefixes)}
        assert shared_doc
        for name, value in shared_doc.items():
            twin = graphs["word"].consts[name]
            assert value.tobytes() == twin.tobytes(), name

    def test_tampered_const_is_detected(self, tmp_path):
        pipe = make_pipe(tmp_path)
        graph = export_pipeline(pipe)
        # shift one logit only; a uniform bias shift would cancel in softmax
        tampered = graph.consts["decoder.b0"].copy()
        tampered[0] += np.float32(0.5)
        graph.consts["decoder.b0"] = tampered
        report = verify_equivalence(pipe, graph, n_samples=10, seed=6)
        assert report.max_abs_dev > 0.0
        assert not report.within(1e-5)

    @pytest.mark.parametrize("tamper", ["head_bias", "first_text_word_row"])
    def test_nan_scores_fail_the_check(self, tmp_path, tamper):
        pipe = make_pipe(tmp_path)
        graph = export_pipeline(pipe)
        if tamper == "head_bias":
            name, row, n = "decoder.b0", slice(None), 1
        else:
            # only the last of the n texts checked reads this row; the ones
            # before it, the empty text first, still score finite
            row, n = first_drawn_word_row(pipe, seed=7)
            name = "embedding.word.table"
        report = verify_equivalence(pipe, with_nan_row(graph, name, row), n_samples=n, seed=7)
        assert np.isnan(report.max_abs_dev)
        assert not report.within(0.0)

    def test_equal_nan_scores_match_and_are_reported_not_finite(self, tmp_path):
        # weights 1e37 times their size overflow both forwards to the same
        # NaN bits: the graph matches, and the report names the overflow
        pipe = make_pipe(tmp_path)
        for name, p in pipe.model.named_parameters().items():
            if name.startswith(("embedding.", "decoder.w")):
                p.data = p.data * np.float32(1e37)
        with np.errstate(over="ignore", invalid="ignore"):
            report = verify_equivalence(pipe, export_pipeline(pipe), n_samples=5, seed=1)
        assert report.argmax_agree and report.max_abs_dev == 0.0 and report.within(0.0)
        assert not report.finite
        fresh = make_pipe(tmp_path)
        assert verify_equivalence(fresh, export_pipeline(fresh), n_samples=5, seed=1).finite

    def test_a_restored_pipeline_checks_trained_word_rows(self, tmp_path):
        # textforge export verifies a pipeline restored from its checkpoint,
        # which holds no dataset; the texts checked still read trained rows
        train(make_pipe(tmp_path, epochs=1), ckpt_path=str(tmp_path / "model.ckpt"))
        pipe = restore_pipeline(load_checkpoint(str(tmp_path / "model.ckpt")), use_best=True)
        seed = pipe.settings.seed
        row, _ = first_drawn_word_row(pipe, seed)
        graph = with_nan_row(export_pipeline(pipe), "embedding.word.table", row)
        report = verify_equivalence(pipe, graph, n_samples=20, seed=seed)
        assert report.n_samples == 20
        assert np.isnan(report.max_abs_dev)
        assert not report.within(0.0)

    @pytest.mark.parametrize("kind,head,overrides", [
        ("doc", None, {}),
        ("word", None, {"embedding": RICH_EMBEDDING}),  # zero tokens through the char CNN
        ("joint", "doc", {}),
        ("joint", "word", {}),
    ], ids=["doc", "word_char_highway", "joint_doc", "joint_word"])
    def test_empty_text_agrees(self, tmp_path, kind, head, overrides):
        pipe = make_pipe(tmp_path, kind=kind, **overrides)
        graph, model = export_pipeline(pipe), pipe.model
        if head is not None:
            graph, model = graph[head], model.tasks[head]
        res = run(Executor(graph), "")
        feats = pipe.featurizer.featurize("")
        batch = single_example_batch(feats, pipe.vocabs, pipe.max_chars)
        out = model.forward(batch, compute_loss=False)
        assert np.array_equal(out.scores[0], res["scores"])
        assert np.array_equal(out.preds[0], res["pred"])

    def test_a_graph_of_another_label_count_disagrees(self, tmp_path):
        pipe = make_pipe(tmp_path)
        (tmp_path / "few").mkdir()
        few = instantiate_task(parse_task_config(json.dumps(
            corpora.doc_config(str(tmp_path / "few"), n_train=2, n_eval=2))))
        assert len(few.labels["doc"]) < len(pipe.labels["doc"])
        report = verify_equivalence(pipe, export_pipeline(few), n_samples=3)
        assert not report.argmax_agree
        assert report.max_abs_dev == float("inf")

    def test_sample_count_required(self, tmp_path):
        pipe = make_pipe(tmp_path)
        graph = export_pipeline(pipe)
        with pytest.raises(EmptySampleSet):
            verify_equivalence(pipe, graph, n_samples=0)

    def test_sample_texts_mix_vocabulary_entries_and_letter_soup(self):
        entries = ["play", "wake", "jazz"]
        texts = exporter.sample_texts(Vocabulary(entries), 40, derive_rng(0, 2))
        assert len(texts) == 40 and texts[0] == "" and all(texts[1:])
        assert texts == exporter.sample_texts(Vocabulary(entries), 40, derive_rng(0, 2))
        words = [word for text in texts for word in text.split()]
        assert {w.lower() for w in words} & set(entries) == set(entries)
        assert [w for w in words if w.lower() not in entries]
        assert not any("<" in w for w in words)  # never <pad> or <unk>

    def test_sample_texts_are_letter_soup_over_an_empty_vocabulary(self):
        texts = exporter.sample_texts(Vocabulary([]), 40, derive_rng(0, 2))
        assert len(texts) == 40 and texts[0] == ""
        words = [word for text in texts[1:] for word in text.split()]
        assert all(1 <= len(t.split()) <= 12 for t in texts[1:])
        assert all(w.isascii() and w.isalpha() and w[1:] == w[1:].lower() for w in words)
        assert any(w[0].isupper() for w in words) and any(w[0].islower() for w in words)

    def test_report_semantics(self):
        good = EquivalenceReport(max_abs_dev=5e-6, argmax_agree=True, n_samples=3)
        assert good.argmax_agree and good.within(1e-5)
        assert not good.within(1e-6)
        bad = EquivalenceReport(max_abs_dev=0.0, argmax_agree=False, n_samples=3)
        assert not bad.argmax_agree and not bad.within(1.0)


# --- every config the schema admits traces to a graph that matches eager ---

def _widths():
    return st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True)


@st.composite
def model_configs(draw):
    """A task kind and its model section, over every embedding style,
    representation and decoder depth at small sizes."""
    kind = draw(st.sampled_from(["doc", "word", "joint"]))
    dims = {style: draw(st.sampled_from([0, 0, 2, 3]))
            for style in ("word_dim", "char_dim", "gaz_dim", "cap_dim")}
    if not any(dims.values()):
        dims["word_dim"] = 2
    embedding = {"token": dict(dims, char_filter_widths=draw(_widths()),
                               char_num_filters=draw(st.integers(1, 3)),
                               char_highway_layers=draw(st.integers(0, 2)))}
    hidden = draw(st.integers(1, 3))
    attn = {"bilstm_attn": {"hidden_dim": hidden, "attention_dim": draw(st.integers(1, 3))}}
    decoders = [{"mlp": {"hidden_dims": draw(st.lists(st.integers(1, 4), max_size=2))}}
                for _ in range(2)]
    if kind == "joint":
        return kind, {"joint": {
            "embedding": embedding, "doc_representation": attn,
            "word_representation": {"bilstm_tagger": {"hidden_dim": hidden}},
            "doc_decoder": decoders[0], "word_decoder": decoders[1]}}
    if kind == "word":
        rep, output = {"bilstm_tagger": {"hidden_dim": hidden}}, {"word_tagging": {}}
    else:
        rep = draw(st.sampled_from([attn, {"docnn": {"filter_widths": draw(_widths()),
                                                     "num_filters": draw(st.integers(1, 3))}}]))
        output = {"doc_classification": {}}
    return kind, {"single": {"embedding": embedding, "representation": rep,
                             "decoder": decoders[0], "output": output}}


@settings(max_examples=60, deadline=None)
@given(model=model_configs(), lowercase=st.booleans(), max_chars=st.integers(1, 25),
       seed=st.integers(0, 2 ** 16), texts=st.lists(st.text(max_size=24), min_size=1,
                                                     max_size=3))
def test_every_config_traces_to_an_equivalent_graph(model, lowercase, max_chars, seed, texts):
    kind, model_section = model
    build = {"doc": corpora.doc_config, "word": corpora.word_config,
             "joint": corpora.joint_config}[kind]
    with tempfile.TemporaryDirectory() as root:
        cfg = build(root, n_train=30, n_eval=4, seed=seed, epochs=1)
        (task,) = cfg["task"].values()
        task["model"] = model_section
        task["featurizer"] = {"basic": {"lowercase": lowercase, "max_chars": max_chars}}
        pipe = instantiate_task(parse_task_config(json.dumps(cfg)))
        train(pipe)
    graphs = export_pipeline(pipe)
    heads = graphs if kind == "joint" else {None: graphs}
    for head, graph in heads.items():
        assert verify_equivalence(pipe, graph, n_samples=2, seed=seed, head=head).within(0.0)
        model = pipe.model.tasks[head] if head else pipe.model
        ex = Executor(graph)
        for text in texts:
            batch = single_example_batch(pipe.featurizer.featurize(text), pipe.vocabs,
                                         pipe.char_width)
            eager = model.forward(batch, compute_loss=False)
            res = run(ex, text)
            assert eager.scores[0].tobytes() == res["scores"].tobytes(), (head, text)
            assert np.array_equal(eager.preds[0], res["pred"]), (head, text)
