"""Graph container format, validation rules, and interpreter semantics."""

import os
import struct
import zlib
from dataclasses import fields, replace

import numpy as np
import pytest

from textforge import binio
from textforge import graph as graph_module
from textforge.errors import (CorruptGraph, IdOutOfRange, InputTypeMismatch,
                              VersionMismatch)
from textforge.featurizer import CAP_CLASSES, GAZ_NONE, featurize
from textforge.registry import MAX_CHARS
from textforge.vocab import Vocabulary
from textforge.graph import (GRAPH_MAGIC, GRAPH_VERSION, Executor, GraphOp,
                             StaticGraph, deserialize, load_graph,
                             prepare_feed, run, save_graph, serialize,
                             validate_graph)

F32 = np.float32

# the graph-level attrs every loaded graph must carry
ATTRS = {"task": "doc_classification", "labels": ["neg", "pos"], "lowercase": True,
         "max_chars": 4}


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
    )


# where baked_graph() holds its MatMulAdd, Softmax and ArgMax ops
MATMUL, SOFTMAX, ARGMAX = 3, 4, 5


def set_op_input(g, index, position, slot):
    """g with input position of op index reading slot instead."""
    op = g.ops[index]
    op.inputs = op.inputs[:position] + (slot,) + op.inputs[position + 1:]
    return g


def malformed_matmul_two_inputs():
    g = baked_graph()
    g.ops[MATMUL] = GraphOp("MatMulAdd", ("rep", "w"), "logits")
    return g


def with_spare_lstm(**attrs):
    """baked_graph() plus an LSTM over the embeddings whose output nothing reads."""
    rng = np.random.default_rng(0)
    g = baked_graph()
    g.consts.update({"w_ih": rng.normal(size=(3, 8)).astype(F32),
                     "w_hh": rng.normal(size=(2, 8)).astype(F32),
                     "bias": np.zeros(8, dtype=F32)})
    g.ops.insert(2, GraphOp("LSTMSeq", ("emb", "w_ih", "w_hh", "bias"), "h", attrs))
    return g


def malformed_lstm_without_reverse():
    return with_spare_lstm()


def with_spare_char_lookup(**stray_attrs):
    """baked_graph() plus a char lookup whose output nothing reads."""
    g = baked_graph()
    g.vocabs["char"] = Vocabulary(["g", "o"])
    g.ops.insert(1, GraphOp("LookupChars", ("tokens",), "char_ids",
                            {"vocab": "char", **stray_attrs}))
    return g


def with_logits_concat(**stray_attrs):
    """baked_graph() plus a Concat of the logits with themselves."""
    g = baked_graph()
    g.ops.append(GraphOp("Concat", ("logits", "logits"), "twice", stray_attrs))
    return g


def malformed_lookup_chars_max_chars_not_the_graphs():
    # char rows are cut at the graph's max_chars; an op carries no width
    return with_spare_char_lookup(max_chars=ATTRS["max_chars"] - 1)


def malformed_concat_axis_zero():
    # Concat always joins on the last axis; an op carries no axis
    return with_logits_concat(axis=0)


def malformed_op_input_is_a_list():
    g = baked_graph()
    g.ops[SOFTMAX] = GraphOp("Softmax", (["logits"],), "scores")
    return g


def malformed_op_output_is_an_int():
    g = baked_graph()
    g.ops[SOFTMAX] = GraphOp("Softmax", ("logits",), 7)
    return g


def malformed_opcode_is_a_list():
    g = baked_graph()
    g.ops[SOFTMAX] = GraphOp(["Softmax"], ("logits",), "scores")
    return g


def malformed_attrs_a_list():
    g = baked_graph()
    g.attrs = ["lowercase"]
    return g


def malformed_attrs_without_labels():
    g = baked_graph()
    del g.attrs["labels"]
    return g


def malformed_labels_empty():
    g = baked_graph()
    g.attrs["labels"] = []
    return g


def malformed_labels_not_strings():
    g = baked_graph()
    g.attrs["labels"] = [0, 1]
    return g


def malformed_labels_too_few():
    # the bias of the MatMulAdd feeding scores is 2 wide
    g = baked_graph()
    g.attrs["labels"] = ["a"]
    return g


def malformed_labels_too_many():
    g = baked_graph()
    g.attrs["labels"] = ["a", "b", "c"]
    return g


def malformed_outputs_without_pred():
    # every graph writes pred and scores; a request reads both
    g = baked_graph()
    del g.ops[ARGMAX]
    return g


def malformed_pred_not_an_argmax():
    g = baked_graph()
    g.ops[ARGMAX] = GraphOp("Relu", ("logits",), "pred")
    return g


def malformed_pred_of_other_than_the_logits():
    # the ArgMax of the 4 pooled features names labels the graph has not
    return set_op_input(baked_graph(), ARGMAX, 0, "rep")


def malformed_task_an_int():
    g = baked_graph()
    g.attrs["task"] = 5
    return g


def malformed_task_joint():
    # a joint model exports one single-task graph per head
    g = baked_graph()
    g.attrs["task"] = "joint_doc_word"
    return g


def malformed_labels_repeated():
    # two classes under one name would print the wrong label
    g = baked_graph()
    g.attrs["labels"] = ["pos", "pos"]
    return g


def malformed_lowercase_an_int():
    g = baked_graph()
    g.attrs["lowercase"] = 1
    return g


def malformed_max_chars_a_string():
    g = baked_graph()
    g.attrs["max_chars"] = "x"
    return g


def malformed_max_chars_a_bool():
    g = baked_graph()
    g.attrs["max_chars"] = True
    return g


def malformed_max_chars_zero():
    g = baked_graph()
    g.attrs["max_chars"] = 0
    return g


def malformed_max_chars_at_the_bound():
    g = baked_graph()
    g.attrs["max_chars"] = MAX_CHARS
    return g


def malformed_consts_a_list():
    g = baked_graph()
    g.consts = list(g.consts.values())
    return g




def malformed_vocab_table_unknown():
    # a graph holds only the token, char, gaz and cap tables
    g = baked_graph()
    g.vocabs["ghost"] = Vocabulary(["go"])
    return g


def malformed_const_an_int():
    g = baked_graph()
    g.consts["w"] = 5
    return g


def malformed_const_a_string():
    g = baked_graph()
    g.consts["w"] = "w"
    return g


def malformed_const_int64_array():
    g = baked_graph()
    g.consts["w"] = g.consts["w"].astype(np.int64)
    return g


def malformed_const_nan():
    # a weight that is not finite makes every score NaN
    g = baked_graph()
    g.consts["b"] = np.array([0.1, np.nan], dtype=F32)
    return g


def malformed_input_is_a_const():
    # the feed would be shadowed by the const of the same name
    g = baked_graph()
    g.consts["tokens"] = np.ones(3, dtype=F32)
    return g


def malformed_const_named_like_a_feed_no_op_reads():
    g = baked_graph()
    g.consts["gaz_labels"] = np.ones(3, dtype=F32)
    return g


def malformed_op_reads_an_unknown_name():
    # no feed, const or op gives x, so every request would fail
    return set_op_input(baked_graph(), MATMUL, 0, "x")


def malformed_op_writes_a_feed():
    g = baked_graph()
    g.ops.insert(1, GraphOp("LookupTokens", ("tokens",), "cap_labels", {"vocab": "token"}))
    return g


def malformed_graph_attr_unknown():
    g = baked_graph()
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
    return reshaped_const(baked_graph, "w", -1)


def malformed_const_read_as_a_computed_value():
    g = baked_graph()
    g.ops.append(GraphOp("Relu", ("b",), "t"))
    return g


def malformed_gather_reads_the_raw_tokens():
    # a gather takes the ids a lookup makes, not the strings it reads
    g = baked_graph()
    g.ops[1] = GraphOp("EmbedGather", ("tokens", "table"), "emb")
    return g


def malformed_relu_reads_the_raw_tokens():
    g = baked_graph()
    g.ops.append(GraphOp("Relu", ("tokens",), "t"))
    return g


def malformed_lookup_reads_a_computed_value():
    g = baked_graph()
    g.ops.append(GraphOp("LookupTokens", ("logits",), "t", {"vocab": "token"}))
    return g


def malformed_concat_reads_the_token_ids():
    # the ids a lookup gives are integers, and only a gather reads them
    g = baked_graph()
    g.ops.append(GraphOp("Concat", ("token_ids", "emb"), "t"))
    return g


def malformed_lstm_reads_the_token_ids():
    g = with_spare_lstm(reverse=False)
    return set_op_input(g, 2, 0, "token_ids")


def malformed_gather_reads_floats():
    g = baked_graph()
    g.ops.insert(2, GraphOp("EmbedGather", ("emb", "table"), "t"))
    return g


def malformed_relu_reads_the_pred():
    # an ArgMax gives ids too
    g = baked_graph()
    g.ops.append(GraphOp("Relu", ("pred",), "t"))
    return g


def graph_blob(body: bytes) -> bytes:
    """A graph blob with a valid header and checksum around any body."""
    return GRAPH_MAGIC + struct.pack("<II", GRAPH_VERSION, zlib.crc32(body)) + body


def payload_with(field, value):
    """The payload of baked_graph() with one field replaced, re-encoded."""
    payload = binio.decode(serialize(baked_graph())[12:])
    payload[field] = value
    return graph_blob(binio.encode(payload))


def with_relu_payload(**fields):
    """The payload of baked_graph() plus a Relu op over the logits with the
    given fields, re-encoded: ops the in-memory GraphOp cannot express."""
    payload = binio.decode(serialize(baked_graph())[12:])
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
    return payload_with("vocabs", [TOKEN_TABLE])


def malformed_vocab_duplicate_entry():
    return payload_with("vocabs", {"token": TOKEN_TABLE + ["go"]})


def malformed_vocab_not_a_list():
    return payload_with("vocabs", {"token": " ".join(TOKEN_TABLE)})


def malformed_vocab_non_string_entry():
    return payload_with("vocabs", {"token": ["<pad>", "<unk>", "go", 3]})


def malformed_vocab_without_specials_first():
    # a Vocabulary would put <pad>, <unk> in front and then see <pad> twice
    return payload_with("vocabs", {"token": ["go", "home", "<pad>"]})


class TestSerialization:
    def test_round_trip_values(self):
        g = baked_graph()
        g2 = deserialize(serialize(g))
        assert g2.attrs == g.attrs and g2.vocabs["token"].entries == TOKEN_TABLE
        assert [o.opcode for o in g2.ops] == [o.opcode for o in g.ops]
        assert np.array_equal(g2.consts["w"], g.consts["w"])

    def test_round_trip_bytes_fixed_point(self):
        blob = serialize(baked_graph())
        assert serialize(deserialize(blob)) == blob

    def test_save_load_save_byte_identical(self, tmp_path):
        p1, p2 = str(tmp_path / "a.graph"), str(tmp_path / "b.graph")
        save_graph(baked_graph(), p1)
        save_graph(load_graph(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_flipped_byte_fails_checksum(self):
        blob = bytearray(serialize(baked_graph()))
        blob[len(blob) // 2] ^= 0x01
        with pytest.raises(CorruptGraph):
            deserialize(bytes(blob))

    def test_truncation_rejected(self):
        blob = serialize(baked_graph())
        with pytest.raises(CorruptGraph):
            deserialize(blob[:-5])
        with pytest.raises(CorruptGraph):
            deserialize(blob[:8])

    def test_wrong_magic_rejected(self):
        blob = serialize(baked_graph())
        with pytest.raises(CorruptGraph):
            deserialize(b"XXXX" + blob[4:])

    def test_future_version_rejected(self):
        blob = bytearray(serialize(baked_graph()))
        blob[4:8] = struct.pack("<I", GRAPH_VERSION + 1)
        with pytest.raises(VersionMismatch):
            deserialize(bytes(blob))

    def test_format_4_rejected(self):
        # format 4 stored input and output lists, which format 5 derives
        blob = bytearray(serialize(baked_graph()))
        blob[4:8] = struct.pack("<I", 4)
        with pytest.raises(VersionMismatch, match="format version 4, expected 5"):
            deserialize(bytes(blob))

    def test_failed_save_keeps_previous_graph(self, tmp_path, monkeypatch):
        path = tmp_path / "model.graph"
        save_graph(baked_graph(), str(path))
        before = path.read_bytes()

        def fail(fd):
            raise OSError("disk full")
        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError, match="disk full"):
            save_graph(with_logits_concat(), str(path))
        assert path.read_bytes() == before
        assert load_graph(str(path)).ops[-1].opcode == "ArgMax"
        assert os.listdir(str(tmp_path)) == ["model.graph"]

    def test_reader_tables_name_exactly_the_keys_serialize_writes(self):
        payload = binio.decode(serialize(baked_graph())[12:])
        # every graph reads the raw text feeds and writes pred and scores
        assert set(payload) == {"attrs", "consts", "vocabs", "ops"}
        assert set(graph_module._PAYLOAD_FIELDS) == set(payload)
        assert set(graph_module.GRAPH_ATTRS) == set(payload["attrs"])
        assert set(graph_module._PAYLOAD_FIELDS) == {f.name for f in fields(StaticGraph)}
        assert set(graph_module._OP_FIELDS) == {f.name for f in fields(GraphOp)}
        for op in payload["ops"]:
            assert set(graph_module._OP_FIELDS) == set(op)

    def test_unknown_opcode_in_payload(self):
        g = baked_graph()
        g.ops[MATMUL] = GraphOp("FusedMegaOp", ("rep", "w", "b"), "logits")
        blob = serialize(g)  # serialization is format-only, no validation
        with pytest.raises(CorruptGraph):
            deserialize(blob)


class TestValidation:
    def test_valid_graphs_pass(self):
        validate_graph(baked_graph())
        validate_graph(with_spare_char_lookup())
        validate_graph(with_logits_concat())
        validate_graph(with_spare_lstm(reverse=False))

    def test_read_before_produce(self):
        g = baked_graph()
        g.ops[MATMUL], g.ops[SOFTMAX] = g.ops[SOFTMAX], g.ops[MATMUL]
        with pytest.raises(CorruptGraph):
            validate_graph(g)

    def test_two_producers(self):
        g = baked_graph()
        g.ops.append(GraphOp("Relu", ("logits",), "scores"))
        with pytest.raises(CorruptGraph):
            validate_graph(g)

    def test_output_must_be_produced(self):
        g = baked_graph()
        g.ops[ARGMAX].output = "nothing"
        with pytest.raises(CorruptGraph, match="does not end in scores and pred"):
            validate_graph(g)

    @pytest.mark.parametrize("make,message", [
        (malformed_op_reads_an_unknown_name,
         "op MatMulAdd reads 'x', which is no feed, const or earlier output"),
        (malformed_input_is_a_const, "const 'tokens' is named like a raw text feed"),
        (malformed_const_named_like_a_feed_no_op_reads,
         "const 'gaz_labels' is named like a raw text feed"),
        (malformed_op_writes_a_feed,
         "op LookupTokens writes 'cap_labels', which a feed, const or earlier op holds"),
        (malformed_pred_of_other_than_the_logits,
         "does not end in scores and pred, the Softmax and the ArgMax of one value"),
    ], ids=["reads_x", "const_tokens", "const_gaz_labels", "writes_a_feed", "pred_of_rep"])
    def test_each_graph_reads_the_feeds_and_writes_pred_and_scores(self, make, message):
        with pytest.raises(CorruptGraph, match=message):
            validate_graph(make())

    @pytest.mark.parametrize("make,message", [
        (malformed_concat_reads_the_token_ids,
         "op Concat reads 'token_ids', integer ids, where it takes float values"),
        (malformed_lstm_reads_the_token_ids,
         "op LSTMSeq reads 'token_ids', integer ids, where it takes float values"),
        (malformed_gather_reads_floats,
         "op EmbedGather reads 'emb', float values, where it takes integer ids"),
        (malformed_relu_reads_the_pred,
         "op Relu reads 'pred', integer ids, where it takes float values"),
    ], ids=["concat", "lstm", "gather", "relu_reads_pred"])
    def test_each_computed_value_is_read_as_the_kind_it_is(self, make, message):
        with pytest.raises(CorruptGraph, match=message):
            validate_graph(make())

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
        malformed_labels_repeated,
        malformed_outputs_without_pred,
        malformed_pred_not_an_argmax,
        malformed_pred_of_other_than_the_logits,
        malformed_task_an_int,
        malformed_task_joint,
        malformed_lowercase_an_int,
        malformed_max_chars_a_string,
        malformed_max_chars_a_bool,
        malformed_max_chars_zero,
        malformed_max_chars_at_the_bound,
        malformed_consts_a_list,
        malformed_vocabs_a_list,
        malformed_vocab_duplicate_entry,
        malformed_vocab_not_a_list,
        malformed_vocab_non_string_entry,
        malformed_vocab_without_specials_first,
        malformed_vocab_table_unknown,
        malformed_const_an_int,
        malformed_const_a_string,
        malformed_const_int64_array,
        malformed_const_nan,
        malformed_input_is_a_const,
        malformed_const_named_like_a_feed_no_op_reads,
        malformed_op_reads_an_unknown_name,
        malformed_op_writes_a_feed,
        malformed_graph_attr_unknown,
        malformed_embedding_table_rank_1,
        malformed_conv_filters_rank_2,
        malformed_matmul_weight_rank_1,
        malformed_const_read_as_a_computed_value,
        malformed_gather_reads_the_raw_tokens,
        malformed_relu_reads_the_raw_tokens,
        malformed_lookup_reads_a_computed_value,
        malformed_concat_reads_the_token_ids,
        malformed_lstm_reads_the_token_ids,
        malformed_gather_reads_floats,
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
        # format 4 required both fields as lists; format 5 has neither (every
        # graph reads the raw text feeds and writes pred and scores), so a
        # payload carrying either is refused whatever its value
        with pytest.raises(CorruptGraph, match=r"graph has unknown fields \['%s'\]" % field):
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

    @pytest.mark.parametrize("payload,message", [
        (np.zeros(3, dtype=F32), "graph is not a mapping"),
        ({"ops": [np.zeros(3, dtype=F32)]}, "graph field 'attrs' is missing or malformed"),
        (["ops"], "graph is not a mapping"),
    ], ids=["array", "op an array", "list"])
    def test_payload_of_the_wrong_shape_rejected_on_load(self, payload, message):
        with pytest.raises(CorruptGraph, match=message):
            deserialize(graph_blob(binio.encode(payload)))

    def test_the_innermost_field_at_fault_is_named(self):
        with pytest.raises(CorruptGraph, match="graph field 'ops': op 0 is not a mapping"):
            deserialize(payload_with("ops", [np.zeros(3, dtype=F32)]))
        with pytest.raises(CorruptGraph,
                           match="graph field 'ops': op 4 field 'output' is missing or malformed"):
            deserialize(serialize(malformed_op_output_is_an_int()))

    def test_deep_nesting_rejected_on_load(self):
        header = b"[" * 5000 + b"null" + b"]" * 5000
        deep = struct.pack("<I", len(header)) + header
        with pytest.raises(CorruptGraph, match="nested"):
            deserialize(graph_blob(deep))


class TestExecutor:
    def test_linear_softmax_argmax_by_hand(self):
        g = baked_graph()
        out = Executor(g).run_feed(prepare_feed(g, "go home go"))
        emb = g.consts["table"][[2, 3, 2]]
        filt = g.consts["filt"]
        # the two windows of width 2 over three tokens, max-pooled
        rep = np.maximum(emb[0] @ filt[0] + emb[1] @ filt[1], emb[1] @ filt[0] + emb[2] @ filt[1])
        logits = rep @ g.consts["w"] + g.consts["b"]
        e = np.exp(logits - logits.max())
        np.testing.assert_allclose(out["scores"], e / e.sum(), rtol=1e-6)
        assert out["pred"] == int(np.argmax(logits))

    def test_consts_win_over_feed_values(self):
        g = baked_graph()
        feed = prepare_feed(g, "go home")
        want = Executor(g).run_feed(feed)
        got = Executor(g).run_feed(dict(feed, w=np.zeros((4, 2), dtype=F32)))
        assert np.array_equal(got["scores"], want["scores"])

    def test_embed_gather_bounds(self):
        gather = graph_module.OPS["EmbedGather"].run
        table = np.eye(3, dtype=F32)
        assert gather(np.array([2, 0], dtype=np.int64), table).tolist() == [[0, 0, 1], [1, 0, 0]]
        with pytest.raises(IdOutOfRange):
            gather(np.array([3], dtype=np.int64), table)

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

    def test_char_rows_are_cut_at_the_graphs_max_chars(self, monkeypatch):
        g = with_spare_char_lookup()
        g.attrs["max_chars"] = 3
        rows = []
        spec = graph_module.OPS["LookupChars"]
        monkeypatch.setitem(graph_module.OPS, "LookupChars", replace(
            spec, run=lambda *args: rows.append(spec.run(*args)) or rows[-1]))
        run(Executor(g), "go ogg goooo")
        assert [r.tolist() for r in rows] == [[[2, 3, 0], [3, 2, 2], [2, 3, 3]]]

    def test_pred_that_disagrees_with_the_task_attr_is_refused(self):
        # the doc graph predicts one label; a word tagger predicts one per token
        g = baked_graph()
        g.attrs["task"] = "word_tagging"
        with pytest.raises(CorruptGraph, match="graph attr 'task' is 'word_tagging'"):
            run(Executor(g), "go home")

    def test_rerun_does_not_mutate_state(self):
        ex = Executor(baked_graph())
        a = run(ex, "go home")
        b = run(ex, "go home")
        assert np.array_equal(a["scores"], b["scores"])


PROBE_TABLES = {"tokens": Vocabulary(["go"]), "cap_labels": Vocabulary(CAP_CLASSES),
                "gaz_labels": Vocabulary([GAZ_NONE])}
CAP_ENTRIES = ["<pad>", "<unk>"] + list(CAP_CLASSES)


def probe_ids(inp) -> dict:
    """Per raw text feed of inp, as a lowercasing graph feeds it, the ids a
    LookupTokens over that feed's probe table gives."""
    feed = prepare_feed(baked_graph(), inp)
    lookup = graph_module.OPS["LookupTokens"].run
    return {name: lookup(table, feed[name]).tolist() for name, table in PROBE_TABLES.items()}


class TestPrepareFeed:
    def test_baked_rejects_id_dicts(self):
        with pytest.raises(InputTypeMismatch):
            prepare_feed(baked_graph(), {"token_ids": [1, 2]})

    def test_unsupported_types(self):
        # a token list would skip the featurizer's lowercasing, so it is refused
        for inp in (42, {"tokens": ["go"]}, ["go", "home"], ["go", 3]):
            with pytest.raises(InputTypeMismatch):
                prepare_feed(baked_graph(), inp)

    def test_token_list_input_keeps_given_casing(self):
        # a token list would be looked up verbatim ("Go" -> <unk>), so it is
        # refused; the text keeps its given casing for the caps feature only
        with pytest.raises(InputTypeMismatch):
            prepare_feed(baked_graph(), ["Go", "x"])
        ids = probe_ids("Go x")
        assert [CAP_ENTRIES[i] for i in ids["cap_labels"]] == ["init_cap", "all_lower"]
        assert ids["tokens"] == [2, 1]

    def test_feed_holds_every_raw_text_feed(self):
        # every graph may read every feed, whichever its lookups read
        feats = featurize("Go HOME x")
        feed = prepare_feed(baked_graph(), feats)
        assert list(feed) == list(graph_module._FEEDS)
        assert feed == {"tokens": ["go", "home", "x"], "gaz_labels": feats.gaz_labels,
                        "cap_labels": feats.cap_labels}
        # the feed's lists are its own: a graph run cannot reach the example
        assert feed["gaz_labels"] is not feats.gaz_labels
        assert feed["cap_labels"] is not feats.cap_labels

    def test_text_input_computes_caps_before_lowercasing(self):
        ids = probe_ids("Go HOME x")
        assert [CAP_ENTRIES[i] for i in ids["cap_labels"]] == ["init_cap", "all_caps", "all_lower"]
        # tokens were lowercased for the token vocab
        assert ids["tokens"] == [2, 1, 1]
        # no gazetteer spans given: every token maps to the none label
        assert ids["gaz_labels"] == [2, 2, 2]
