"""Lowering eager models to static graphs and proving the two agree."""

import hashlib
import json

import numpy as np
import pytest

import corpora
from textforge.components import DOC_TASK, WORD_TASK
from textforge.data_handler import single_example_batch
from textforge.errors import EmptySampleSet, UnsupportedModule
from textforge.exporter import (EquivalenceReport, export_model,
                                export_pipeline, verify_equivalence)
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
                             pipe.doc_labels, DOC_TASK, pipe.vocabs)
        assert [op.opcode for op in graph.ops] == [
            "LookupTokens", "EmbedGather",
            "Conv1DMaxPool", "Conv1DMaxPool", "Concat",
            "MatMulAdd",
            "Softmax", "ArgMax",
        ]
        assert graph.inputs == ["tokens"]
        assert graph.outputs == ["pred", "scores"]

    def test_baked_trace_prepends_lookups(self, tmp_path):
        pipe = make_pipe(tmp_path)
        graph = export_pipeline(pipe)
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
        graph = export_model(pipe.model, pipe.featurizer.settings,
                             pipe.doc_labels, DOC_TASK, pipe.vocabs)
        assert graph.inputs == ["tokens", "cap_labels"]
        lookups = [(op.opcode, op.output) for op in graph.ops[:3]]
        assert lookups == [("LookupTokens", "token_ids"), ("LookupChars", "char_ids"),
                           ("LookupTokens", "cap_ids")]

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
            export_model(pipe.model, pipe.featurizer.settings, pipe.doc_labels,
                         DOC_TASK, pipe.vocabs)


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
        "doc": "6dced16ee6d049bc6208b03760233432238e08658a7c33b0a6c98d968f18d742",
        "word": "a9b279d5f52f33130cdfa4f7103f609ce5fc34b2db8e6d6daf92386aff491d8c",
        "joint.doc": "6430f933cbfd311cd4856b2f557a05ebf5153cb1c94db98e40a6d7ffeb0ef52a",
        "joint.word": "23cbdbf6372646d4bcd88bc299e03609ca55a6c813b699972ccf7e72a4edef34",
        "doc.all_stages": "0ad41457d6b9b6da2d50cc0bc0aeb6ac69c1f3dedb8a5b7486bd98712af63052",
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
            name, row = "decoder.b0", slice(None)
        else:
            # only the first held-out text reads this row; the empty synthetic
            # text checked after it still scores finite
            sources = pipe.datasets["test"] or pipe.datasets["eval"]
            feats = pipe.featurizer.featurize(sources[0].examples[0].raw_text)
            name, row = "embedding.word.table", pipe.vocabs.token.lookup(feats.token_texts()[0])
        tampered = graph.consts[name].copy()  # the const is the model's own array
        tampered[row] = np.nan
        graph.consts[name] = tampered
        report = verify_equivalence(pipe, graph, n_samples=1, seed=7)
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
