"""Graph container format, validation rules, and interpreter semantics."""

import os
import struct
import zlib

import numpy as np
import pytest

from textforge import binio
from textforge import graph as graph_module
from textforge.errors import (CorruptGraph, IdOutOfRange, InputTypeMismatch,
                              VersionMismatch)
from textforge.featurizer import CAP_CLASSES, GAZ_NONE, featurize
from textforge.vocab import Vocabulary
from textforge.graph import (GRAPH_MAGIC, GRAPH_VERSION, Executor, GraphOp,
                             StaticGraph, deserialize, load_graph,
                             prepare_feed, run, save_graph, serialize,
                             validate_graph)

F32 = np.float32

# the graph-level attrs every loaded graph must carry
ATTRS = {"task": "doc_classification", "labels": ["neg", "pos"], "lowercase": True,
         "max_chars": 4}


def linear_graph():
    """x -> logits -> softmax/argmax, weights as consts."""
    w = np.array([[1.0, -1.0], [0.5, 0.5], [0.0, 2.0]], dtype=F32)
    b = np.array([0.1, -0.1], dtype=F32)
    return StaticGraph(
        attrs=dict(ATTRS),
        consts={"w": w, "b": b},
        vocabs={},
        ops=[
            GraphOp("MatMulAdd", ("x", "w", "b"), "logits"),
            GraphOp("Softmax", ("logits",), "scores"),
            GraphOp("ArgMax", ("logits",), "pred"),
        ],
        inputs=["x"],
        outputs=["pred", "scores"],
    )


TOKEN_TABLE = ["<pad>", "<unk>", "go", "home"]


def baked_graph():
    """Raw tokens -> ids -> embedding -> conv pool -> linear head."""
    rng = np.random.default_rng(0)
    table = rng.uniform(-0.1, 0.1, size=(4, 3)).astype(F32)
    table[0] = 0.0
    filt = rng.uniform(-0.5, 0.5, size=(2, 3, 4)).astype(F32)
    w = rng.uniform(-0.5, 0.5, size=(4, 2)).astype(F32)
    b = np.zeros(2, dtype=F32)
    return StaticGraph(
        attrs=dict(ATTRS),
        consts={"table": table, "filt": filt, "w": w, "b": b},
        vocabs={"token": Vocabulary(TOKEN_TABLE)},
        ops=[
            GraphOp("LookupTokens", ("tokens",), "token_ids", {"vocab": "token"}),
            GraphOp("EmbedGather", ("token_ids", "table"), "emb"),
            GraphOp("Conv1DMaxPool", ("emb", "filt"), "rep"),
            GraphOp("MatMulAdd", ("rep", "w", "b"), "logits"),
            GraphOp("Softmax", ("logits",), "scores"),
            GraphOp("ArgMax", ("logits",), "pred"),
        ],
        inputs=["tokens"],
        outputs=["pred", "scores"],
    )


def malformed_matmul_two_inputs():
    g = linear_graph()
    g.ops[0] = GraphOp("MatMulAdd", ("x", "w"), "logits")
    return g


def malformed_lstm_without_reverse():
    rng = np.random.default_rng(0)
    consts = {"w_ih": rng.normal(size=(3, 8)).astype(F32),
              "w_hh": rng.normal(size=(2, 8)).astype(F32),
              "bias": np.zeros(8, dtype=F32)}
    return StaticGraph(
        attrs=dict(ATTRS),
        consts=consts, vocabs={},
        ops=[GraphOp("LSTMSeq", ("x", "w_ih", "w_hh", "bias"), "h")],
        inputs=["x"], outputs=["h"],
    )


def with_spare_char_lookup(**stray_attrs):
    """baked_graph() plus a char lookup whose output nothing reads."""
    g = baked_graph()
    g.vocabs["char"] = Vocabulary(["g", "o"])
    g.ops.insert(1, GraphOp("LookupChars", ("tokens",), "char_ids",
                            {"vocab": "char", **stray_attrs}))
    return g


def with_logits_concat(**stray_attrs):
    """linear_graph() plus a Concat of the logits with themselves."""
    g = linear_graph()
    g.ops.append(GraphOp("Concat", ("logits", "logits"), "twice", stray_attrs))
    return g


def malformed_lookup_chars_max_chars_not_the_graphs():
    # char rows are cut at the graph's max_chars; an op carries no width
    return with_spare_char_lookup(max_chars=ATTRS["max_chars"] - 1)


def malformed_concat_axis_zero():
    # Concat always joins on the last axis; an op carries no axis
    return with_logits_concat(axis=0)


def malformed_op_input_is_a_list():
    g = linear_graph()
    g.ops[1] = GraphOp("Softmax", (["logits"],), "scores")
    return g


def malformed_op_output_is_an_int():
    g = linear_graph()
    g.ops[1] = GraphOp("Softmax", ("logits",), 7)
    return g


def malformed_opcode_is_a_list():
    g = linear_graph()
    g.ops[1] = GraphOp(["Softmax"], ("logits",), "scores")
    return g


def malformed_attrs_a_list():
    g = baked_graph()
    g.attrs = ["lowercase"]
    return g


def malformed_attrs_without_labels():
    g = linear_graph()
    del g.attrs["labels"]
    return g


def malformed_labels_empty():
    g = linear_graph()
    g.attrs["labels"] = []
    return g


def malformed_labels_not_strings():
    g = linear_graph()
    g.attrs["labels"] = [0, 1]
    return g


def malformed_labels_too_few():
    # the bias of the MatMulAdd feeding scores is 2 wide
    g = linear_graph()
    g.attrs["labels"] = ["a"]
    return g


def malformed_labels_too_many():
    g = linear_graph()
    g.attrs["labels"] = ["a", "b", "c"]
    return g


def malformed_outputs_without_pred():
    g = linear_graph()
    g.outputs = ["scores"]
    return g


def malformed_task_an_int():
    g = linear_graph()
    g.attrs["task"] = 5
    return g


def malformed_task_joint():
    # a joint model exports one single-task graph per head
    g = linear_graph()
    g.attrs["task"] = "joint_doc_word"
    return g


def malformed_lowercase_an_int():
    g = linear_graph()
    g.attrs["lowercase"] = 1
    return g


def malformed_max_chars_a_string():
    g = linear_graph()
    g.attrs["max_chars"] = "x"
    return g


def malformed_max_chars_a_bool():
    g = linear_graph()
    g.attrs["max_chars"] = True
    return g


def malformed_max_chars_zero():
    g = linear_graph()
    g.attrs["max_chars"] = 0
    return g


def malformed_consts_a_list():
    g = linear_graph()
    g.consts = list(g.consts.values())
    return g




def malformed_const_an_int():
    g = linear_graph()
    g.consts["w"] = 5
    return g


def malformed_const_a_string():
    g = linear_graph()
    g.consts["w"] = "w"
    return g


def malformed_const_int64_array():
    g = linear_graph()
    g.consts["w"] = g.consts["w"].astype(np.int64)
    return g


def malformed_input_is_a_const():
    # a fed x would be shadowed by the const of the same name
    g = linear_graph()
    g.consts["x"] = np.ones(3, dtype=F32)
    return g


def malformed_graph_attr_unknown():
    g = linear_graph()
    g.attrs["stray"] = 1
    return g


def reshaped_const(make, name, shape):
    """make()'s graph with const name reshaped to shape."""
    g = make()
    g.consts[name] = g.consts[name].reshape(shape)
    return g


def malformed_embedding_table_rank_1():
    return reshaped_const(baked_graph, "table", -1)


def malformed_conv_filters_rank_2():
    return reshaped_const(baked_graph, "filt", (2, -1))


def malformed_matmul_weight_rank_1():
    return reshaped_const(linear_graph, "w", -1)


def malformed_const_read_as_a_computed_value():
    g = linear_graph()
    g.ops.append(GraphOp("Relu", ("b",), "t"))
    return g


def graph_blob(body: bytes) -> bytes:
    """A graph blob with a valid header and checksum around any body."""
    return GRAPH_MAGIC + struct.pack("<II", GRAPH_VERSION, zlib.crc32(body)) + body


def payload_with(field, value, graph=None):
    """The payload of graph (by default linear_graph()) with one field
    replaced, re-encoded."""
    payload = binio.decode(serialize(graph or linear_graph())[12:])
    payload[field] = value
    return graph_blob(binio.encode(payload))


def with_relu_payload(**fields):
    """The payload of linear_graph() plus a Relu op over the logits with the
    given fields, re-encoded: ops the in-memory GraphOp cannot express."""
    payload = binio.decode(serialize(linear_graph())[12:])
    payload["ops"].append({"opcode": "Relu", "inputs": ["logits"], "attrs": {}, **fields})
    return graph_blob(binio.encode(payload))


def malformed_op_without_outputs():
    return with_relu_payload()


def malformed_op_with_two_outputs():
    return with_relu_payload(output=["t1", "t2"])


def malformed_op_in_the_format_3_shape():
    # format 3 listed each op's outputs; format 4 names its one output
    return with_relu_payload(outputs=["t1"])


def malformed_op_with_an_unknown_key():
    return with_relu_payload(output="t1", stray=1)


def malformed_payload_with_an_unknown_key():
    return payload_with("stray", 1)


def malformed_vocabs_a_list():
    return payload_with("vocabs", [TOKEN_TABLE], baked_graph())


def malformed_vocab_duplicate_entry():
    return payload_with("vocabs", {"token": TOKEN_TABLE + ["go"]}, baked_graph())


def malformed_vocab_not_a_list():
    return payload_with("vocabs", {"token": " ".join(TOKEN_TABLE)}, baked_graph())


def malformed_vocab_non_string_entry():
    return payload_with("vocabs", {"token": ["<pad>", "<unk>", "go", 3]}, baked_graph())


def malformed_vocab_without_specials_first():
    # a Vocabulary would put <pad>, <unk> in front and then see <pad> twice
    return payload_with("vocabs", {"token": ["go", "home", "<pad>"]}, baked_graph())


class TestSerialization:
    def test_round_trip_values(self):
        g = linear_graph()
        g2 = deserialize(serialize(g))
        assert g2.inputs == g.inputs and g2.outputs == g.outputs
        assert [o.opcode for o in g2.ops] == [o.opcode for o in g.ops]
        assert np.array_equal(g2.consts["w"], g.consts["w"])

    def test_round_trip_bytes_fixed_point(self):
        blob = serialize(linear_graph())
        assert serialize(deserialize(blob)) == blob

    def test_save_load_save_byte_identical(self, tmp_path):
        p1, p2 = str(tmp_path / "a.graph"), str(tmp_path / "b.graph")
        save_graph(baked_graph(), p1)
        save_graph(load_graph(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_flipped_byte_fails_checksum(self):
        blob = bytearray(serialize(linear_graph()))
        blob[len(blob) // 2] ^= 0x01
        with pytest.raises(CorruptGraph):
            deserialize(bytes(blob))

    def test_truncation_rejected(self):
        blob = serialize(linear_graph())
        with pytest.raises(CorruptGraph):
            deserialize(blob[:-5])
        with pytest.raises(CorruptGraph):
            deserialize(blob[:8])

    def test_wrong_magic_rejected(self):
        blob = serialize(linear_graph())
        with pytest.raises(CorruptGraph):
            deserialize(b"XXXX" + blob[4:])

    def test_future_version_rejected(self):
        blob = bytearray(serialize(linear_graph()))
        blob[4:8] = struct.pack("<I", GRAPH_VERSION + 1)
        with pytest.raises(VersionMismatch):
            deserialize(bytes(blob))

    def test_failed_save_keeps_previous_graph(self, tmp_path, monkeypatch):
        path = tmp_path / "model.graph"
        save_graph(linear_graph(), str(path))
        before = path.read_bytes()

        def fail(fd):
            raise OSError("disk full")
        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError, match="disk full"):
            save_graph(baked_graph(), str(path))
        assert path.read_bytes() == before
        assert load_graph(str(path)).ops[0].opcode == "MatMulAdd"
        assert os.listdir(str(tmp_path)) == ["model.graph"]

    def test_unknown_opcode_in_payload(self):
        g = linear_graph()
        g.ops[0] = GraphOp("FusedMegaOp", ("x", "w", "b"), "logits")
        blob = serialize(g)  # serialization is format-only, no validation
        with pytest.raises(CorruptGraph):
            deserialize(blob)


class TestValidation:
    def test_valid_graphs_pass(self):
        validate_graph(linear_graph())
        validate_graph(baked_graph())
        validate_graph(with_spare_char_lookup())
        validate_graph(with_logits_concat())

    def test_read_before_produce(self):
        g = linear_graph()
        g.ops = [g.ops[1], g.ops[0], g.ops[2]]
        with pytest.raises(CorruptGraph):
            validate_graph(g)

    def test_two_producers(self):
        g = linear_graph()
        g.ops.append(GraphOp("Relu", ("logits",), "scores"))
        with pytest.raises(CorruptGraph):
            validate_graph(g)

    def test_output_must_be_produced(self):
        g = linear_graph()
        g.outputs = ["pred", "nothing"]
        with pytest.raises(CorruptGraph):
            validate_graph(g)

    def test_lookup_requires_vocab_table(self):
        g = baked_graph()
        g.vocabs = {}
        with pytest.raises(CorruptGraph):
            validate_graph(g)

    @pytest.mark.parametrize("make", [
        malformed_matmul_two_inputs,
        malformed_lstm_without_reverse,
        malformed_lookup_chars_max_chars_not_the_graphs,
        malformed_concat_axis_zero,
        malformed_op_without_outputs,
        malformed_op_with_two_outputs,
        malformed_op_in_the_format_3_shape,
        malformed_op_with_an_unknown_key,
        malformed_payload_with_an_unknown_key,
        malformed_op_input_is_a_list,
        malformed_op_output_is_an_int,
        malformed_opcode_is_a_list,
        malformed_attrs_a_list,
        malformed_attrs_without_labels,
        malformed_labels_empty,
        malformed_labels_not_strings,
        malformed_labels_too_few,
        malformed_labels_too_many,
        malformed_outputs_without_pred,
        malformed_task_an_int,
        malformed_task_joint,
        malformed_lowercase_an_int,
        malformed_max_chars_a_string,
        malformed_max_chars_a_bool,
        malformed_max_chars_zero,
        malformed_consts_a_list,
        malformed_vocabs_a_list,
        malformed_vocab_duplicate_entry,
        malformed_vocab_not_a_list,
        malformed_vocab_non_string_entry,
        malformed_vocab_without_specials_first,
        malformed_const_an_int,
        malformed_const_a_string,
        malformed_const_int64_array,
        malformed_input_is_a_const,
        malformed_graph_attr_unknown,
        malformed_embedding_table_rank_1,
        malformed_conv_filters_rank_2,
        malformed_matmul_weight_rank_1,
        malformed_const_read_as_a_computed_value,
    ])
    def test_malformed_op_rejected_on_load(self, make):
        made = make()  # a graph, or the blob of a payload no graph can express
        blob = made if isinstance(made, bytes) else serialize(made)  # no validation
        with pytest.raises(CorruptGraph):
            deserialize(blob)

    @pytest.mark.parametrize("field,value", [
        ("inputs", {"x": "f32"}),
        ("outputs", {"pred": 0, "scores": 1}),
        ("inputs", "x"),
    ])
    def test_inputs_and_outputs_must_be_lists(self, field, value):
        with pytest.raises(CorruptGraph, match="not a list of slot names"):
            deserialize(payload_with(field, value))

    def test_load_and_executor_validate_once(self, tmp_path, monkeypatch):
        path = str(tmp_path / "model.graph")
        save_graph(baked_graph(), path)
        calls = []
        validate = graph_module.validate_graph

        def counted(graph):
            calls.append(graph)
            validate(graph)
        monkeypatch.setattr(graph_module, "validate_graph", counted)
        Executor(load_graph(path))
        assert len(calls) == 1

    def test_load_and_executor_index_each_vocab_table_once(self, tmp_path, monkeypatch):
        g = with_spare_char_lookup()
        path = str(tmp_path / "model.graph")
        save_graph(g, path)
        indexed = []
        from_table, init = Vocabulary.from_table.__func__, Vocabulary.__init__
        monkeypatch.setattr(Vocabulary, "from_table", classmethod(
            lambda cls, entries: indexed.append(entries) or from_table(cls, entries)))
        monkeypatch.setattr(Vocabulary, "__init__",
                            lambda self, entries: indexed.append(entries) or init(self, entries))
        Executor(load_graph(path))
        assert sorted(map(tuple, indexed)) == sorted(tuple(vocab.entries)
                                                     for vocab in g.vocabs.values())

    def test_executor_indexes_a_table_replaced_after_validation(self):
        # the Executor runs the graph's own Vocabulary, whichever it holds
        g = baked_graph()
        validate_graph(g)
        g.vocabs["token"] = Vocabulary(["home", "go"])
        swapped = run(Executor(g), "go home")
        assert swapped["scores"].tobytes() == run(Executor(baked_graph()),
                                                  "home go")["scores"].tobytes()

    @pytest.mark.parametrize("payload", [
        np.zeros(3, dtype=F32),
        {"ops": [np.zeros(3, dtype=F32)]},
        ["ops"],
    ], ids=["array", "op an array", "list"])
    def test_payload_of_the_wrong_shape_rejected_on_load(self, payload):
        with pytest.raises(CorruptGraph, match="malformed graph payload"):
            deserialize(graph_blob(binio.encode(payload)))

    def test_deep_nesting_rejected_on_load(self):
        header = b"[" * 5000 + b"null" + b"]" * 5000
        deep = struct.pack("<I", len(header)) + header
        with pytest.raises(CorruptGraph, match="nested"):
            deserialize(graph_blob(deep))


class TestExecutor:
    def test_linear_softmax_argmax_by_hand(self):
        ex = Executor(linear_graph())
        x = np.array([1.0, 2.0, 3.0], dtype=F32)
        out = ex.run_feed({"x": x})
        g = linear_graph()
        logits = x @ g.consts["w"] + g.consts["b"]
        e = np.exp(logits - logits.max())
        np.testing.assert_allclose(out["scores"], e / e.sum(), rtol=1e-6)
        assert out["pred"] == int(np.argmax(logits))

    def test_consts_win_over_feed_values(self):
        x = np.array([1.0, 2.0, 3.0], dtype=F32)
        want = Executor(linear_graph()).run_feed({"x": x})
        got = Executor(linear_graph()).run_feed({"x": x, "w": np.zeros((3, 2), dtype=F32)})
        assert np.array_equal(got["scores"], want["scores"])

    def test_embed_gather_bounds(self):
        g = StaticGraph(
            attrs={},
            consts={"table": np.eye(3, dtype=F32)},
            vocabs={},
            ops=[GraphOp("EmbedGather", ("ids", "table"), "emb")],
            inputs=["ids"], outputs=["emb"],
        )
        ex = Executor(g)
        out = ex.run_feed({"ids": np.array([2, 0], dtype=np.int64)})
        assert out["emb"].tolist() == [[0, 0, 1], [1, 0, 0]]
        with pytest.raises(IdOutOfRange):
            ex.run_feed({"ids": np.array([3], dtype=np.int64)})

    def test_baked_tokens_and_oov(self):
        # lowercased to go, home and two OOV tokens that both look up <unk>
        ex = Executor(baked_graph())
        out = run(ex, "Go HOME zzz")
        same = run(ex, "go home qqq")
        assert out["scores"].tobytes() == same["scores"].tobytes()
        assert out["pred"] == same["pred"]
        assert run(ex, "go go go")["scores"].tobytes() != out["scores"].tobytes()

    def test_empty_text_still_scores(self):
        ex = Executor(baked_graph())
        out = run(ex, "")
        assert out["scores"].shape == (2,)
        assert float(out["scores"].sum()) == pytest.approx(1.0, abs=1e-6)
        assert out["pred"] in (0, 1)

    def test_char_rows_are_cut_at_the_graphs_max_chars(self):
        g = with_spare_char_lookup()
        g.attrs["max_chars"] = 3
        g.outputs = ["char_ids"]
        out = run(Executor(g), "go ogg goooo")
        assert out["char_ids"].tolist() == [[2, 3, 0], [3, 2, 2], [2, 3, 3]]

    def test_rerun_does_not_mutate_state(self):
        ex = Executor(baked_graph())
        a = run(ex, "go home")
        b = run(ex, "go home")
        assert np.array_equal(a["scores"], b["scores"])


def cap_probe_graph():
    return StaticGraph(
        attrs={"lowercase": True, "max_chars": 4},
        consts={},
        vocabs={"token": Vocabulary(["go"]), "cap": Vocabulary(CAP_CLASSES),
                "gaz": Vocabulary([GAZ_NONE])},
        ops=[
            GraphOp("LookupTokens", ("tokens",), "tok_ids", {"vocab": "token"}),
            GraphOp("LookupTokens", ("cap_labels",), "cap_ids", {"vocab": "cap"}),
            GraphOp("LookupTokens", ("gaz_labels",), "gaz_ids", {"vocab": "gaz"}),
        ],
        inputs=["tokens", "cap_labels", "gaz_labels"],
        outputs=["tok_ids", "cap_ids", "gaz_ids"],
    )


class TestPrepareFeed:
    def test_baked_rejects_id_dicts(self):
        with pytest.raises(InputTypeMismatch):
            prepare_feed(baked_graph(), {"token_ids": [1, 2]})

    def test_unbaked_rejects_raw_text(self):
        with pytest.raises(InputTypeMismatch):
            prepare_feed(linear_graph(), "set an alarm")

    def test_unbaked_missing_key(self):
        with pytest.raises(InputTypeMismatch):
            prepare_feed(linear_graph(), {"y": [1.0]})

    def test_unsupported_types(self):
        # a token list would skip the featurizer's lowercasing, so it is refused
        for inp in (42, {"tokens": ["go"]}, ["go", "home"], ["go", 3]):
            with pytest.raises(InputTypeMismatch):
                prepare_feed(baked_graph(), inp)

    def test_token_list_input_keeps_given_casing(self):
        ex = Executor(cap_probe_graph())
        # a token list would be looked up verbatim ("Go" -> <unk>), so it is
        # refused; the text keeps its given casing for the caps feature only
        with pytest.raises(InputTypeMismatch):
            prepare_feed(cap_probe_graph(), ["Go", "x"])
        out = run(ex, "Go x")
        cap_entries = ["<pad>", "<unk>"] + list(CAP_CLASSES)
        assert [cap_entries[i] for i in out["cap_ids"]] == ["init_cap", "all_lower"]
        assert out["tok_ids"].tolist() == [2, 1]

    def test_feed_holds_exactly_the_inputs_the_graph_reads(self):
        feats = featurize("Go HOME x")
        assert prepare_feed(baked_graph(), feats) == {"tokens": ["go", "home", "x"]}
        feed = prepare_feed(cap_probe_graph(), feats)
        assert list(feed) == cap_probe_graph().inputs
        assert feed == {"tokens": feats.token_texts(), "gaz_labels": feats.gaz_labels,
                        "cap_labels": feats.cap_labels}
        # the feed's lists are its own: a graph run cannot reach the example
        assert feed["gaz_labels"] is not feats.gaz_labels
        assert feed["cap_labels"] is not feats.cap_labels

    def test_text_input_computes_caps_before_lowercasing(self):
        ex = Executor(cap_probe_graph())
        out = run(ex, "Go HOME x")
        cap_entries = ["<pad>", "<unk>"] + list(CAP_CLASSES)
        got = [cap_entries[i] for i in out["cap_ids"]]
        assert got == ["init_cap", "all_caps", "all_lower"]
        # tokens were lowercased for the token vocab
        assert out["tok_ids"].tolist() == [2, 1, 1]
        # no gazetteer spans given: every token maps to the none label
        assert out["gaz_ids"].tolist() == [2, 2, 2]
