"""Static inference graphs: the format, validation, and the interpreter.

A graph is a topologically ordered op list over named value slots with the
trained weights embedded as constants. The interpreter executes exactly the
same forward kernels as eager mode, minus tape bookkeeping, lifted to a
batch of one, so exported outputs match eager outputs bit for bit.

One opcode table, OPS, gives each op's arity, attrs and run function;
validate_graph and Executor both read it, so a new op is one row here plus
the lower method of the model stage that emits it.
"""

import struct
import zlib
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from . import binio, kernels
from .components import DOC_TASK, WORD_TASK
from .errors import (CorruptGraph, CorruptFile, IdOutOfRange, InputTypeMismatch,
                     VersionMismatch)
from .featurizer import (GAZ_NONE, FeaturizedExample, Featurizer,
                         FeaturizerSettings, capitalization, char_ids)
from .vocab import Vocabulary, all_str, is_table

F32 = np.float32

GRAPH_MAGIC = b"TXGR"
GRAPH_VERSION = 1

SLOT_KINDS = ("f32", "i64", "str")


@dataclass
class GraphOp:
    opcode: str
    inputs: tuple
    outputs: tuple
    attrs: dict = field(default_factory=dict)


@dataclass
class StaticGraph:
    version: int
    attrs: dict            # graph-level: featurizer settings, task, label names
    slots: dict            # slot name -> kind
    consts: dict           # slot name -> ndarray payload
    vocab_tables: dict     # vocab name -> entry list (token/char/gaz/cap)
    ops: list
    inputs: list
    outputs: list

    @property
    def baked(self):
        return bool(self.vocab_tables)


# --- the opcode table: what each op reads, which attrs it needs, how it runs ---

def _lookup_tokens(vocab, tokens):
    return np.array([vocab.lookup(t) for t in tokens], dtype=np.int64)


def _lookup_chars(vocab, max_chars, tokens):
    rows = [char_ids(t, vocab, max_chars) for t in tokens]
    return np.array(rows, dtype=np.int64).reshape(len(tokens), max_chars)


def _embed_gather(ids, table):
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IdOutOfRange("id outside [0, %d)" % table.shape[0])
    return table[ids]


def _matmul_add(x, w, b):
    # lift to a batch of one so the GEMM shapes match training exactly
    return kernels.linear(x[None], w, b)[0]


def _relu(x):
    return np.maximum(x, F32(0.0))


def _one_sequence(kernel, x, empty_shape, *weights, **kwargs):
    """Run a masked sequence kernel on one unpadded sequence x [t, d].

    x is lifted to a batch of one under an all-ones mask so the shapes match
    training exactly; an empty sequence gives zeros of empty_shape.
    """
    t = x.shape[0]
    if t == 0:
        return np.zeros(empty_shape, dtype=F32)
    return kernel(x[None], *weights, np.ones((1, t), dtype=F32), **kwargs)[0][0]


def _conv_maxpool(x, filters):
    f = filters.shape[2]
    if x.ndim == 2:
        return _one_sequence(kernels.conv_maxpool, x, (f,), filters)
    # char path: one row of characters per token, already a batch
    if x.shape[0] == 0:
        return np.zeros((0, f), dtype=F32)
    return kernels.conv_maxpool(x, filters, np.ones(x.shape[:2], dtype=F32))[0]


def _lstm_seq(reverse, x, w_ih, w_hh, bias):
    return _one_sequence(kernels.lstm_seq, x, (0, w_hh.shape[0]), w_ih, w_hh, bias,
                         reverse=reverse)


def _self_attention(x, w1, w2):
    return _one_sequence(kernels.self_attention, x, (x.shape[1],), w1, w2)


def _highway(x, w_t, b_t, w_g, b_g):
    return kernels.highway(x, [(w_t, b_t, w_g, b_g)])


def _concat(axis, *parts):
    return np.concatenate(parts, axis=axis)


@dataclass(frozen=True)
class OpSpec:
    """One opcode: its input arity, its attrs, and the function that runs it.

    arity is the exact input count, or None for one or more inputs. attrs maps
    each op attr to (type, default); a None default makes the attr required.
    run takes the attr values in table order, then the input values, and
    returns the op's one output. It looks kernels up on the kernels module
    at call time.
    """
    arity: Optional[int]
    run: Callable
    attrs: dict = field(default_factory=dict)


OPS = {
    "LookupTokens": OpSpec(1, _lookup_tokens, {"vocab": (str, None)}),
    "LookupChars": OpSpec(1, _lookup_chars, {"vocab": (str, None), "max_chars": (int, None)}),
    "EmbedGather": OpSpec(2, _embed_gather),
    "MatMulAdd": OpSpec(3, _matmul_add),
    "Relu": OpSpec(1, _relu),
    "Conv1DMaxPool": OpSpec(2, _conv_maxpool),
    "LSTMSeq": OpSpec(4, _lstm_seq, {"reverse": (bool, None)}),
    "Concat": OpSpec(None, _concat, {"axis": (int, -1)}),
    "SelfAttention": OpSpec(3, _self_attention),
    "Highway": OpSpec(5, _highway),
    "Softmax": OpSpec(1, lambda x: kernels.softmax(x, axis=-1)),
    "ArgMax": OpSpec(1, lambda x: kernels.argmax_last(x)),
}


# graph attr -> whether a loaded value is well formed; the exporter writes all
# four, and a joint model exports one single-task graph per head
GRAPH_ATTRS = {
    "task": lambda v: isinstance(v, str) and v in (DOC_TASK, WORD_TASK),
    "labels": lambda v: isinstance(v, list) and len(v) > 0 and all_str(v),
    "lowercase": lambda v: isinstance(v, bool),
    "max_chars": lambda v: isinstance(v, int) and not isinstance(v, bool) and v > 0,
}


def _op_attrs(op: GraphOp, spec: OpSpec) -> dict:
    """The attrs an op runs with: its own values, defaults for the rest."""
    return {name: op.attrs.get(name, default) for name, (_, default) in spec.attrs.items()}


def _validate_op(graph: StaticGraph, op: GraphOp) -> None:
    spec = OPS.get(op.opcode) if isinstance(op.opcode, str) else None
    if spec is None:
        raise CorruptGraph("unknown opcode %r" % (op.opcode,))
    n = len(op.inputs)
    if n == 0 or spec.arity not in (None, n):
        raise CorruptGraph("op %s cannot take %d inputs" % (op.opcode, n))
    if len(op.outputs) != 1:
        raise CorruptGraph("op %s has %d outputs, expected 1" % (op.opcode, len(op.outputs)))
    if not (all_str(op.inputs) and all_str(op.outputs)):
        raise CorruptGraph("op %s reads or writes a slot name that is not a string"
                           % op.opcode)
    if not isinstance(op.attrs, dict):
        raise CorruptGraph("op %s attrs are not a mapping" % op.opcode)
    for name, value in _op_attrs(op, spec).items():
        kind = spec.attrs[name][0]
        if not isinstance(value, kind):
            raise CorruptGraph("op %s needs attr %r of type %s"
                               % (op.opcode, name, kind.__name__))
    if "vocab" in spec.attrs and op.attrs["vocab"] not in graph.vocab_tables:
        raise CorruptGraph("op %s needs vocab table %r" % (op.opcode, op.attrs["vocab"]))


def validate_graph(graph: StaticGraph) -> None:
    """Topology, naming, per-op and output checks; raises CorruptGraph on any violation."""
    for what in ("attrs", "slots", "consts", "vocab_tables"):
        if not isinstance(getattr(graph, what), dict):
            raise CorruptGraph("graph %s are not a mapping" % what)
    for name, well_formed in GRAPH_ATTRS.items():
        if name not in graph.attrs or not well_formed(graph.attrs[name]):
            raise CorruptGraph("graph attr %r is missing or malformed" % name)
    for what in ("inputs", "outputs"):
        names = getattr(graph, what)
        if not (isinstance(names, list) and all_str(names)):
            raise CorruptGraph("graph %s are not a list of slot names" % what)
    for name, entries in graph.vocab_tables.items():
        if not is_table(entries):
            raise CorruptGraph("vocab table %r is not a list of unique strings starting "
                               "with %s, %s" % (name, Vocabulary.PAD, Vocabulary.UNK))
    for name, kind in graph.slots.items():
        if not isinstance(kind, str) or kind not in SLOT_KINDS:
            raise CorruptGraph("slot %r has unknown kind %r" % (name, kind))
    for name, value in graph.consts.items():
        if name not in graph.slots:
            raise CorruptGraph("const %r is not a declared slot" % name)
        # the exporter writes every weight as a float32 array in an f32 slot
        if graph.slots[name] != "f32" or not (isinstance(value, np.ndarray)
                                              and value.dtype == F32):
            raise CorruptGraph("const %r is not a float32 array in an f32 slot" % name)
    for name in graph.inputs:
        if name not in graph.slots:
            raise CorruptGraph("input %r is not a declared slot" % name)

    produced = set(graph.consts) | set(graph.inputs)
    for op in graph.ops:
        _validate_op(graph, op)
        for slot in op.inputs:
            if slot not in produced:
                raise CorruptGraph("op %s reads %r before it is produced"
                                   % (op.opcode, slot))
        out = op.outputs[0]
        if out in produced:
            raise CorruptGraph("slot %r has more than one producer" % out)
        if out not in graph.slots:
            raise CorruptGraph("op %s writes undeclared slot %r" % (op.opcode, out))
        produced.add(out)
    for name in graph.outputs:
        if name not in produced:
            raise CorruptGraph("graph output %r is never produced" % name)
    if sorted(graph.outputs) != ["pred", "scores"]:
        raise CorruptGraph("graph outputs are %s, not pred and scores" % (graph.outputs,))
    # one label per class: per entry of the bias of the MatMulAdd under the scores
    producer = {op.outputs[0]: op for op in graph.ops}
    softmax = producer.get("scores")
    head = producer.get(softmax.inputs[0]) if softmax and softmax.opcode == "Softmax" else None
    bias = graph.consts.get(head.inputs[2]) if head and head.opcode == "MatMulAdd" else None
    n_labels = len(graph.attrs["labels"])
    if bias is None or bias.shape != (n_labels,):
        raise CorruptGraph("graph has %d labels, but scores is not a Softmax over a "
                           "MatMulAdd with %d outputs" % (n_labels, n_labels))


def serialize(graph: StaticGraph) -> bytes:
    payload = {
        "attrs": graph.attrs,
        "slots": graph.slots,
        "consts": graph.consts,
        "vocabs": graph.vocab_tables,
        "ops": [{"opcode": op.opcode, "inputs": list(op.inputs),
                 "outputs": list(op.outputs), "attrs": op.attrs}
                for op in graph.ops],
        "inputs": list(graph.inputs),
        "outputs": list(graph.outputs),
    }
    head = GRAPH_MAGIC + struct.pack("<I", graph.version)
    body = binio.encode(payload)
    crc = zlib.crc32(head + body)
    return head + body + struct.pack("<I", crc)


def deserialize(data: bytes) -> StaticGraph:
    if len(data) < 12 or data[:4] != GRAPH_MAGIC:
        raise CorruptGraph("not a graph payload")
    version = struct.unpack("<I", data[4:8])[0]
    if version != GRAPH_VERSION:
        raise VersionMismatch("graph format version %d, expected %d"
                              % (version, GRAPH_VERSION))
    crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != crc:
        raise CorruptGraph("checksum mismatch")
    try:
        payload = binio.decode(data[8:-4])
    except CorruptFile as exc:
        raise CorruptGraph("undecodable body: %s" % exc)
    try:
        ops = [GraphOp(o["opcode"], tuple(o["inputs"]), tuple(o["outputs"]), o["attrs"])
               for o in payload["ops"]]
        graph = StaticGraph(
            version=version,
            attrs=payload["attrs"],
            slots=payload["slots"],
            consts=payload["consts"],
            vocab_tables=payload["vocabs"],
            ops=ops,
            inputs=payload["inputs"],
            outputs=payload["outputs"],
        )
    except (KeyError, TypeError) as exc:
        raise CorruptGraph("malformed graph payload: %s" % exc)
    validate_graph(graph)
    return graph


def load_graph(path: str) -> StaticGraph:
    with open(path, "rb") as handle:
        return deserialize(handle.read())


def save_graph(graph: StaticGraph, path: str) -> None:
    binio.write_file(path, serialize(graph))


class Executor:
    """Precompiled interpreter for one graph; safe for repeated run calls.

    Each op becomes a step with its run function, attrs and input fetcher
    bound at compile time. A run seeds a dict of live values with the feed
    and then the consts (consts win), and loops over the steps. No tape, no
    gradient buffers; scratch values die with the call.

    The graph must already be valid. Executor does not validate it again:
    deserialize, GraphBuilder.finish and prepend_vocab validate every graph
    the program reads or makes.
    """

    def __init__(self, graph: StaticGraph):
        self.graph = graph
        self._consts = dict(graph.consts)
        self._vocabs = {name: Vocabulary(entries)
                        for name, entries in graph.vocab_tables.items()}
        self._steps = [self._compile(op) for op in graph.ops]

    def _compile(self, op: GraphOp):
        spec = OPS[op.opcode]
        attrs = _op_attrs(op, spec)
        if "vocab" in attrs:
            attrs["vocab"] = self._vocabs[attrs["vocab"]]
        fn = partial(spec.run, *attrs.values()) if attrs else spec.run
        out = op.outputs[0]
        # plain calls for up to three inputs keep dispatch as cheap as a
        # hand-written closure; wider ops unpack a fetched tuple
        if len(op.inputs) == 1:
            (x,) = op.inputs
            def step(env):
                env[out] = fn(env[x])
        elif len(op.inputs) == 2:
            x, y = op.inputs
            def step(env):
                env[out] = fn(env[x], env[y])
        elif len(op.inputs) == 3:
            x, y, z = op.inputs
            def step(env):
                env[out] = fn(env[x], env[y], env[z])
        else:
            fetch = itemgetter(*op.inputs)
            def step(env):
                env[out] = fn(*fetch(env))
        return step

    def run_feed(self, feed: dict) -> dict:
        env = {**feed, **self._consts}
        for step in self._steps:
            step(env)
        return {name: env[name] for name in self.graph.outputs}


def prepare_feed(graph: StaticGraph, inp) -> dict:
    """Turn a caller-level input into the slot feed the graph expects.

    Baked graphs consume raw strings (text, a token list, or a featurized
    example); unbaked graphs consume a dict of integer id arrays.
    """
    if graph.baked:
        if isinstance(inp, dict):
            raise InputTypeMismatch("this graph consumes raw tokens, not id tensors")
        if isinstance(inp, str):
            settings = FeaturizerSettings(lowercase=graph.attrs["lowercase"],
                                          max_chars=graph.attrs["max_chars"])
            inp = Featurizer(settings).featurize(inp, ())
        if isinstance(inp, FeaturizedExample):
            raw = {"tokens": inp.token_texts(), "gaz_labels": list(inp.gaz_labels),
                   "cap_labels": list(inp.cap_labels)}
        elif isinstance(inp, (list, tuple)) and all(isinstance(t, str) for t in inp):
            raw = {"tokens": list(inp), "gaz_labels": [GAZ_NONE] * len(inp),
                   "cap_labels": [capitalization(t) for t in inp]}
        else:
            raise InputTypeMismatch("unsupported input of type %s" % type(inp).__name__)
        feed = {}
        for name in graph.inputs:
            if name not in raw:
                raise InputTypeMismatch("graph expects unknown input %r" % name)
            feed[name] = raw[name]
        return feed

    if not isinstance(inp, dict):
        raise InputTypeMismatch(
            "this graph consumes token ids; bake vocabularies to feed raw tokens")
    feed = {}
    for name in graph.inputs:
        if name not in inp:
            raise InputTypeMismatch("missing graph input %r" % name)
        feed[name] = np.asarray(inp[name], dtype=np.int64)
    return feed


def run(executor: Executor, inp) -> dict:
    """Single-example inference: raw input in, prediction and scores out."""
    feed = prepare_feed(executor.graph, inp)
    return executor.run_feed(feed)
