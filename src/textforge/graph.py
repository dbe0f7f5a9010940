"""Static inference graphs: the format, validation, and the interpreter.

A graph is a topologically ordered op list over named value slots with the
trained weights embedded as constants. The interpreter executes exactly the
same forward kernels as eager mode, minus tape bookkeeping, lifted to a
batch of one, so exported outputs match eager outputs bit for bit.

Each op reads named slots and writes the one slot named by its output. One
opcode table, OPS, gives each op's arity, attrs, weight ranks and run
function; validate_graph and Executor both read it, so a new op is one row
here plus the ops function that reports it to the exporter's tracer.
"""

from dataclasses import dataclass, field, fields
from functools import partial
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from . import binio, kernels
from .components import DOC_TASK, WORD_TASK
from .errors import CorruptGraph, CorruptFile, InputTypeMismatch
from .featurizer import FeaturizedExample, char_ids, featurize
from .vocab import Vocabulary, all_str

F32 = np.float32

GRAPH_MAGIC = b"TXGR"
GRAPH_VERSION = 4


@dataclass
class GraphOp:
    opcode: str
    inputs: tuple
    output: str
    attrs: dict = field(default_factory=dict)


@dataclass
class StaticGraph:
    attrs: dict            # graph-level: featurizer settings, task, label names
    consts: dict           # slot name -> ndarray payload
    vocabs: dict           # vocab name (token/char/gaz/cap) -> Vocabulary
    ops: list
    inputs: list
    outputs: list


# --- the opcode table: what each op reads, which attrs it needs, how it runs ---

def _lookup_tokens(vocab, tokens):
    return np.array([vocab.lookup(t) for t in tokens], dtype=np.int64)


def _lookup_chars(vocab, max_chars, tokens):
    rows = [char_ids(t, vocab, max_chars) for t in tokens]
    return np.array(rows, dtype=np.int64).reshape(len(tokens), max_chars)


def _matmul_add(x, w, b):
    # lift to a batch of one so the GEMM shapes match training exactly
    return kernels.linear(x[None], w, b)[0]


def _one_sequence(kernel, x, *weights, **kwargs):
    """Run a masked sequence kernel on one unpadded sequence x [t, d].

    x is lifted to a batch of one under an all-ones mask so the shapes match
    training exactly; the kernels give an empty sequence (t == 0) zeros.
    """
    return kernel(x[None], *weights, np.ones((1, x.shape[0]), dtype=F32), **kwargs)[0][0]


def _conv_maxpool(x, filters):
    if x.ndim == 2:
        return _one_sequence(kernels.conv_maxpool, x, filters)
    # char path: one row of characters per token, already a batch
    return kernels.conv_maxpool(x, filters, np.ones(x.shape[:2], dtype=F32))[0]


def _lstm_seq(reverse, x, w_ih, w_hh, bias):
    return _one_sequence(kernels.lstm_seq, x, w_ih, w_hh, bias, reverse=reverse)


def _self_attention(x, w1, w2):
    return _one_sequence(kernels.self_attention, x, w1, w2)


@dataclass(frozen=True)
class OpSpec:
    """One opcode: its input arity, its attrs, and the function that runs it.

    arity is the exact input count, or None for one or more inputs. attrs maps
    each op attr to its type; an op carries exactly these attrs. graph_attrs
    names the graph attrs the op also runs with. weights gives, per input
    position, the rank of the const that may fill it, or None where the op
    reads a computed value; a const fills only a weight position. run takes
    the op attr values, then the graph attr values, in table order, then the
    input values, and returns the op's one output. It looks kernels up on
    the kernels module at call time.
    """
    arity: Optional[int]
    run: Callable
    attrs: dict = field(default_factory=dict)
    graph_attrs: tuple = ()
    weights: tuple = ()


OPS = {
    "LookupTokens": OpSpec(1, _lookup_tokens, {"vocab": str}),
    "LookupChars": OpSpec(1, _lookup_chars, {"vocab": str}, ("max_chars",)),
    "EmbedGather": OpSpec(2, lambda ids, table: kernels.embed_gather(ids, table),
                          weights=(None, 2)),
    "MatMulAdd": OpSpec(3, _matmul_add, weights=(None, 2, 1)),
    "Relu": OpSpec(1, lambda x: kernels.relu(x)),
    "Conv1DMaxPool": OpSpec(2, _conv_maxpool, weights=(None, 3)),
    "LSTMSeq": OpSpec(4, _lstm_seq, {"reverse": bool}, weights=(None, 2, 2, 1)),
    "Concat": OpSpec(None, lambda *parts: np.concatenate(parts, axis=-1)),
    "SelfAttention": OpSpec(3, _self_attention, weights=(None, 2, 1)),
    "Highway": OpSpec(5, lambda *args: kernels.highway(*args)[0],
                      weights=(None, 2, 1, 2, 1)),
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


def _validate_op(graph: StaticGraph, op: GraphOp) -> None:
    spec = OPS.get(op.opcode) if isinstance(op.opcode, str) else None
    if spec is None:
        raise CorruptGraph("unknown opcode %r" % (op.opcode,))
    n = len(op.inputs)
    if n == 0 or spec.arity not in (None, n):
        raise CorruptGraph("op %s cannot take %d inputs" % (op.opcode, n))
    if not (all_str(op.inputs) and isinstance(op.output, str)):
        raise CorruptGraph("op %s reads or writes a slot name that is not a string"
                           % op.opcode)
    if not isinstance(op.attrs, dict):
        raise CorruptGraph("op %s attrs are not a mapping" % op.opcode)
    if set(op.attrs) != set(spec.attrs):
        raise CorruptGraph("op %s has attrs %s, expected %s"
                           % (op.opcode, sorted(op.attrs), sorted(spec.attrs)))
    for name, kind in spec.attrs.items():
        if not isinstance(op.attrs[name], kind):
            raise CorruptGraph("op %s needs attr %r of type %s"
                               % (op.opcode, name, kind.__name__))
    if "vocab" in op.attrs and op.attrs["vocab"] not in graph.vocabs:
        raise CorruptGraph("op %s needs vocab table %r" % (op.opcode, op.attrs["vocab"]))
    for slot, rank in zip(op.inputs, spec.weights or (None,) * n):
        if slot in graph.consts and graph.consts[slot].ndim != rank:
            raise CorruptGraph("op %s reads const %r of rank %d where it takes %s"
                               % (op.opcode, slot, graph.consts[slot].ndim,
                                  "a computed value" if rank is None else "rank %d" % rank))


def _reject_unknown(what, mapping, known) -> None:
    stray = sorted(set(mapping) - set(known))
    if stray:
        raise CorruptGraph("%s: unknown keys %s" % (what, stray))


def validate_graph(graph: StaticGraph) -> None:
    """Topology, naming, per-op, const-rank and output checks; raises
    CorruptGraph on any violation and changes nothing. Vocabulary tables are
    checked where deserialize reads them, by Vocabulary.from_table."""
    for what in ("attrs", "consts", "vocabs"):
        if not isinstance(getattr(graph, what), dict):
            raise CorruptGraph("graph %s are not a mapping" % what)
    for name, well_formed in GRAPH_ATTRS.items():
        if name not in graph.attrs or not well_formed(graph.attrs[name]):
            raise CorruptGraph("graph attr %r is missing or malformed" % name)
    _reject_unknown("graph attrs", graph.attrs, GRAPH_ATTRS)
    for what in ("inputs", "outputs"):
        names = getattr(graph, what)
        if not (isinstance(names, list) and all_str(names)):
            raise CorruptGraph("graph %s are not a list of slot names" % what)
    for name, value in graph.consts.items():
        # the exporter writes every weight as a float32 array
        if not (isinstance(value, np.ndarray) and value.dtype == F32):
            raise CorruptGraph("const %r is not a float32 array" % name)

    fed_consts = set(graph.consts) & set(graph.inputs)
    if fed_consts:
        raise CorruptGraph("graph input %r is also a const" % sorted(fed_consts)[0])
    produced = set(graph.consts) | set(graph.inputs)
    for op in graph.ops:
        _validate_op(graph, op)
        for slot in op.inputs:
            if slot not in produced:
                raise CorruptGraph("op %s reads %r before it is produced"
                                   % (op.opcode, slot))
        if op.output in produced:
            raise CorruptGraph("slot %r has more than one producer" % op.output)
        produced.add(op.output)
    for name in graph.outputs:
        if name not in produced:
            raise CorruptGraph("graph output %r is never produced" % name)
    if sorted(graph.outputs) != ["pred", "scores"]:
        raise CorruptGraph("graph outputs are %s, not pred and scores" % (graph.outputs,))
    # one label per class: per entry of the bias of the MatMulAdd under the scores
    producer = {op.output: op for op in graph.ops}
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
        "consts": graph.consts,
        "vocabs": {name: vocab.entries for name, vocab in graph.vocabs.items()},
        "ops": [{"opcode": op.opcode, "inputs": list(op.inputs),
                 "output": op.output, "attrs": op.attrs}
                for op in graph.ops],
        "inputs": list(graph.inputs),
        "outputs": list(graph.outputs),
    }
    return binio.pack_container(GRAPH_MAGIC, GRAPH_VERSION, payload)


def _read_vocabs(tables) -> dict:
    """The Vocabulary over each stored table, which from_table checks."""
    if not isinstance(tables, dict):
        raise CorruptGraph("graph vocabs are not a mapping")
    vocabs = {name: Vocabulary.from_table(entries) for name, entries in tables.items()}
    for name, vocab in vocabs.items():
        if vocab is None:
            raise CorruptGraph("vocab table %r is not a list of unique strings starting "
                               "with %s, %s" % (name, Vocabulary.PAD, Vocabulary.UNK))
    return vocabs


def deserialize(data: bytes) -> StaticGraph:
    try:
        payload = binio.unpack_container(data, GRAPH_MAGIC, GRAPH_VERSION, "graph")
    except CorruptFile as exc:
        raise CorruptGraph(str(exc))
    try:
        ops = [GraphOp(o["opcode"], tuple(o["inputs"]), o["output"], o["attrs"])
               for o in payload["ops"]]
        graph = StaticGraph(
            attrs=payload["attrs"],
            consts=payload["consts"],
            vocabs=_read_vocabs(payload["vocabs"]),
            ops=ops,
            inputs=payload["inputs"],
            outputs=payload["outputs"],
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise CorruptGraph("malformed graph payload: %s" % exc)
    # the payload and each op read above are mappings, keyed as the fields of
    # StaticGraph and GraphOp; a key nothing reads is rejected, not dropped
    _reject_unknown("graph payload", payload, [f.name for f in fields(StaticGraph)])
    op_keys = [f.name for f in fields(GraphOp)]
    for o in payload["ops"]:
        _reject_unknown("op %s" % (o["opcode"],), o, op_keys)
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
    bound at compile time; a lookup binds the graph's own Vocabulary. A run
    seeds a dict of live values with the feed and graph.consts, which
    validate_graph keeps apart, and loops over the steps. No tape, no
    gradient buffers; scratch values die with the call.

    The graph must already be valid. Executor does not validate it again:
    deserialize and export_model validate every graph the program reads or
    makes.
    """

    def __init__(self, graph: StaticGraph):
        self.graph = graph
        self._steps = [self._compile(op) for op in graph.ops]

    def _compile(self, op: GraphOp):
        spec = OPS[op.opcode]
        args = [self.graph.vocabs[op.attrs[name]] if name == "vocab" else op.attrs[name]
                for name in spec.attrs]
        args += [self.graph.attrs[name] for name in spec.graph_attrs]
        fn = partial(spec.run, *args) if args else spec.run
        out = op.output
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
        env = {**feed, **self.graph.consts}
        for step in self._steps:
            step(env)
        return {name: env[name] for name in self.graph.outputs}


# graph input name -> how a FeaturizedExample gives it; only read inputs are built
_FEEDS = {
    "tokens": FeaturizedExample.token_texts,
    "gaz_labels": lambda ex: list(ex.gaz_labels),
    "cap_labels": lambda ex: list(ex.cap_labels),
}


def prepare_feed(graph: StaticGraph, inp) -> dict:
    """Turn raw text or a FeaturizedExample into the graph's string inputs.

    Text is featurized with the graph's own settings and no gazetteer. Any
    other input raises InputTypeMismatch.
    """
    if isinstance(inp, str):
        inp = featurize(inp, (), lowercase=graph.attrs["lowercase"])
    if not isinstance(inp, FeaturizedExample):
        raise InputTypeMismatch("a graph consumes text or a featurized example, not %s"
                                % type(inp).__name__)
    feed = {}
    for name in graph.inputs:
        if name not in _FEEDS:
            raise InputTypeMismatch("graph expects unknown input %r" % name)
        feed[name] = _FEEDS[name](inp)
    return feed


def run(executor: Executor, inp) -> dict:
    """Single-example inference: raw input in, prediction and scores out."""
    feed = prepare_feed(executor.graph, inp)
    return executor.run_feed(feed)
