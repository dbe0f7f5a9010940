"""Lowering eager models to static graphs and proving the two agree."""

import hashlib
import json

import numpy as np
import pytest

import corpora
from textforge.components import DOC_TASK, WORD_TASK
from textforge.data_handler import single_example_batch
from textforge.errors import (EmptySampleSet, UnsupportedModule,
                              VocabAlreadyBaked)
from textforge.exporter import (EquivalenceReport, export_model,
                                export_pipeline, prepend_vocab,
                                verify_equivalence)
from textforge.graph import Executor, run, serialize
from textforge.pipeline import instantiate_task
from textforge.registry import parse_task_config


def make_pipe(tmp_path, kind="doc", **overrides):
    build = {"doc": corpora.doc_config, "word": corpora.word_config,
             "joint": corpora.joint_config}[kind]
    cfg = build(str(tmp_path), n_train=16, n_eval=8, **overrides)
    return instantiate_task(parse_task_config(json.dumps(cfg)))


RICH_EMBEDDING = {"token": {"word_dim": 8, "char_dim": 4,
                            "char_filter_widths": [2], "char_num_filters": 6,
                            "cap_dim": 3}}


class TestLoweringShape:
    def test_docnn_opcode_trace(self, tmp_path):
        pipe = make_pipe(tmp_path)
        graph = export_model(pipe.model, pipe.featurizer.settings,
                             pipe.doc_labels, DOC_TASK)
        assert [op.opcode for op in graph.ops] == [
            "EmbedGather",
            "Conv1DMaxPool", "Conv1DMaxPool", "Concat",
            "MatMulAdd",
            "Softmax", "ArgMax",
        ]
        assert not graph.baked
        assert graph.inputs == ["token_ids"]
        assert graph.outputs == ["pred", "scores"]

    def test_baked_trace_prepends_lookups(self, tmp_path):
        pipe = make_pipe(tmp_path)
        graph = export_pipeline(pipe)
        assert graph.baked
        assert graph.inputs == ["tokens"]
        assert graph.ops[0].opcode == "LookupTokens"
        assert graph.vocab_tables["token"][:2] == ["<pad>", "<unk>"]

    def test_attrs_carry_task_and_labels(self, tmp_path):
        pipe = make_pipe(tmp_path)
        graph = export_pipeline(pipe)
        assert graph.attrs["task"] == DOC_TASK
        assert graph.attrs["labels"] == pipe.doc_labels
        assert graph.attrs["lowercase"] is True
        assert graph.attrs["max_chars"] == pipe.max_chars

    def test_multi_style_inputs(self, tmp_path):
        pipe = make_pipe(tmp_path, embedding=RICH_EMBEDDING)
        unbaked = export_model(pipe.model, pipe.featurizer.settings,
                               pipe.doc_labels, DOC_TASK)
        assert unbaked.inputs == ["token_ids", "char_ids", "cap_ids"]
        baked = prepend_vocab(unbaked, pipe.vocabs)
        assert baked.inputs == ["tokens", "cap_labels"]
        lookup_ops = [op.opcode for op in baked.ops[:3]]
        assert lookup_ops == ["LookupTokens", "LookupChars", "LookupTokens"]

    def test_const_names_are_parameter_paths(self, tmp_path):
        pipe = make_pipe(tmp_path)
        graph = export_pipeline(pipe)
        named = pipe.model.named_parameters()
        assert set(graph.consts) <= set(named)
        for name, value in graph.consts.items():
            assert np.array_equal(value, named[name].data), name

    def test_double_bake_rejected(self, tmp_path):
        pipe = make_pipe(tmp_path)
        graph = export_pipeline(pipe)  # baked by default
        with pytest.raises(VocabAlreadyBaked):
            prepend_vocab(graph, pipe.vocabs)

    def test_non_single_task_model_rejected(self, tmp_path):
        pipe = make_pipe(tmp_path, kind="joint")
        with pytest.raises(UnsupportedModule):
            export_model(pipe.model, pipe.featurizer.settings, pipe.doc_labels,
                         DOC_TASK)


class TestGoldenBytes:
    """Serialized baked graphs of seeded, untrained pipelines, pinned by hash.

    A change to lowering, baking or the container format shows up here even
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
        "doc": "0b202dd3ce56b0cd8f82339df2b29e78ef456187ab282dcb3214da13d5c42560",
        "word": "c02d3710125f6114608f8e2338979e2ee7d9d48e065646a18b1b1f1291ee5117",
        "joint.doc": "0d575edc22e23d4e84678473ff81a4a52e5c56e6f3a569df3bc7d75d72f1f859",
        "joint.word": "072fa422c703d29e82469d72e24ef0a183123127c47c5ef1fc3144d81092770b",
        "doc.all_stages": "ad187342019038e9a15654885295bde179725441dd922dae45b254ded167daee",
    }

    def test_graph_bytes_are_pinned(self, tmp_path):
        def pipe(name, kind=None, **overrides):
            (tmp_path / name).mkdir()
            return make_pipe(tmp_path / name, kind=kind or name, **overrides)

        graphs = {"doc": export_pipeline(pipe("doc")),
                  "word": export_pipeline(pipe("word", embedding=RICH_EMBEDDING)),
                  "doc.all_stages": export_pipeline(pipe("doc.all_stages", kind="doc",
                                                         **self.ALL_STAGES))}
        joint = export_pipeline(pipe("joint"))
        graphs.update({"joint." + head: g for head, g in joint.items()})
        digests = {name: hashlib.sha256(serialize(g)).hexdigest()
                   for name, g in graphs.items()}
        assert digests == self.GOLDEN


class TestParameterLayout:
    """The parameter walk of seeded, untrained models, pinned by hash.

    Checkpoints, optimizer state, graph const names and module files all read
    named_parameters() and parameters(); a change to their names, order,
    shapes or init draws shows up here.
    """

    ALL_STYLES = {"token": {"word_dim": 8, "char_dim": 4, "char_filter_widths": [2],
                            "char_num_filters": 6, "gaz_dim": 5, "cap_dim": 3}}

    GOLDEN = {
        "doc": ("ea1041e91714e099a9c85814722138587c57ed72d9a178d068a986330a02491b",
                "1786827058c8febd87283fe6507e006bc8f01b4639fe967f106fe64d59995ef9"),
        "word": ("871f4a8413b374de814036f51d64a3302153fe720c62dd777f3bd56bfdf4401e",
                 "1d12d2b52ed5c38a087cdbf10a1dfbf59dab8a139b30232542781df5b469cd05"),
        "joint": ("b921e5ef73c5e9af03c0b30ec8f8869bf524922475e0a720eed9a8eb900b9b93",
                  "7415fc40b6bcb06cbb06440a6665aab32c2863716f43156dbc2b36c422109804"),
    }

    @staticmethod
    def digests(model):
        walk = hashlib.sha256()
        for name, param in model.named_parameters().items():
            walk.update(("%s %s\n" % (name, param.data.shape)).encode())
            walk.update(param.data.tobytes())
        unique = hashlib.sha256("\n".join(p.name for p in model.parameters()).encode())
        return walk.hexdigest(), unique.hexdigest()

    def test_parameter_walk_is_pinned(self, tmp_path):
        overrides = {"doc": {}, "word": {"embedding": self.ALL_STYLES}, "joint": {}}
        digests = {}
        for kind, extra in overrides.items():
            (tmp_path / kind).mkdir()
            digests[kind] = self.digests(make_pipe(tmp_path / kind, kind=kind, **extra).model)
        assert digests == self.GOLDEN


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
        assert report.n_samples >= 10
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

    def test_unbaked_graph_on_id_feeds_matches(self, tmp_path):
        pipe = make_pipe(tmp_path)
        graph = export_pipeline(pipe, bake=False)
        assert not graph.baked
        report = verify_equivalence(pipe, graph, n_samples=10, seed=4)
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

    def test_empty_text_agrees(self, tmp_path):
        pipe = make_pipe(tmp_path)
        graph = export_pipeline(pipe)
        ex = Executor(graph)
        res = run(ex, "")
        feats = pipe.featurizer.featurize("")
        batch = single_example_batch(feats, pipe.vocabs, pipe.max_chars)
        out = pipe.model.forward(batch, compute_loss=False)
        assert np.array_equal(out.scores[0], res["scores"])
        assert np.array_equal(out.preds[0], res["pred"])

    def test_sample_count_required(self, tmp_path):
        pipe = make_pipe(tmp_path)
        graph = export_pipeline(pipe)
        with pytest.raises(EmptySampleSet):
            verify_equivalence(pipe, graph, n_samples=0)

    def test_report_semantics(self):
        good = EquivalenceReport(max_abs_dev=5e-6, argmax_agree=True, n_samples=3)
        assert good.argmax_agree and good.within(1e-5)
        assert not good.within(1e-6)
        bad = EquivalenceReport(max_abs_dev=0.0, argmax_agree=False, n_samples=3)
        assert not bad.argmax_agree and not bad.within(1.0)
