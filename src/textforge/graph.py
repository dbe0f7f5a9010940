"""Static inference graphs: the format, validation, and the interpreter.

A graph is a topologically ordered op list over named value slots with the
trained weights embedded as constants. Every graph is of one kind: it reads
the raw text feeds that _FEEDS names and writes pred and scores, so the
format stores no input or output list. The interpreter executes exactly the
same forward kernels as eager mode, minus tape bookkeeping, lifted to a
batch of one, so exported outputs match eager outputs bit for bit.

Each op reads named slots and writes the one slot named by its output. One
opcode table, OPS, gives each op's arity, attrs, weight ranks and run
function; validate_graph and Executor both read it, so a new op is one row
here plus the ops function that reports it to the exporter's tracer.
"""

from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from . import binio, kernels
from .data_handler import VOCAB_NAMES
from .errors import CorruptGraph, CorruptFile, InputTypeMismatch
from .featurizer import FeaturizedExample, char_ids, featurize
from .registry import DOC_TASK, MAX_CHARS, WORD_TASK
from .vocab import Vocabulary, all_str

F32 = np.float32

GRAPH_MAGIC = b"TXGR"
GRAPH_VERSION = 5


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
    """Run a sequence kernel on one unpadded sequence x [t, d].

    x is lifted to a batch of one, with lengths None, so the shapes match
    training exactly; the kernels give an empty sequence (t == 0) zeros.
    """
    return kernel(x[None], *weights, None, **kwargs)[0][0]


def _conv_maxpool(x, filters):
    # kernels.conv_maxpool still takes a float mask: all ones, as nothing is padded
    if x.ndim == 2:
        return kernels.conv_maxpool(x[None], filters, np.ones((1, len(x)), dtype=F32))[0][0]
    # char path: one row of characters per token, already a batch
    return kernels.conv_maxpool(x, filters, np.ones(x.shape[:2], dtype=F32))[0]


def _lstm_seq(reverse, x, w_ih, w_hh, bias):
    return _one_sequence(kernels.lstm_seq, x, w_ih, w_hh, bias, reverse=reverse)


def _self_attention(x, w1, w2):
    return _one_sequence(kernels.self_attention, x, w1, w2)


# raw text feed name -> how a FeaturizedExample gives it, as a list of its
# own; every graph may read every feed, and only a lookup reads one
TOKENS, GAZ_LABELS, CAP_LABELS = "tokens", "gaz_labels", "cap_labels"
_FEEDS = {
    TOKENS: FeaturizedExample.token_texts,
    GAZ_LABELS: lambda ex: list(ex.gaz_labels),
    CAP_LABELS: lambda ex: list(ex.cap_labels),
}
TEXT = "a raw text feed"  # the OpSpec.weights entry of a position that reads one
IDS = "integer ids"  # the OpSpec.weights entry of a position that reads a lookup's ids


@dataclass(frozen=True)
class OpSpec:
    """One opcode: its input arity, its attrs, and the function that runs it.

    arity is the exact input count, or None for one or more inputs. attrs maps
    each op attr to its type; an op carries exactly these attrs. graph_attrs
    names the graph attrs the op also runs with. weights gives, per input
    position, the rank of the const that may fill it, TEXT where the op reads
    a raw text feed named in _FEEDS, IDS where it reads the ids an op gives,
    or None where it reads the float values an op gives; a const fills only
    a weight position, a text feed only a TEXT one. run takes
    the op attr values, then the graph attr values, in table order, then the
    input values, and returns the op's one output. It looks kernels up on
    the kernels module at call time. gives_ids says the output is integer
    ids; every other op's is float32 values.
    """
    arity: Optional[int]
    run: Callable
    attrs: dict = field(default_factory=dict)
    graph_attrs: tuple = ()
    weights: tuple = ()
    gives_ids: bool = False


OPS = {
    "LookupTokens": OpSpec(1, _lookup_tokens, {"vocab": str}, weights=(TEXT,),
                           gives_ids=True),
    "LookupChars": OpSpec(1, _lookup_chars, {"vocab": str}, ("max_chars",), (TEXT,),
                          gives_ids=True),
    "EmbedGather": OpSpec(2, lambda ids, table: kernels.embed_gather(ids, table),
                          weights=(IDS, 2)),
    "MatMulAdd": OpSpec(3, _matmul_add, weights=(None, 2, 1)),
    "Relu": OpSpec(1, lambda x: kernels.relu(x)),
    "Conv1DMaxPool": OpSpec(2, _conv_maxpool, weights=(None, 3)),
    "LSTMSeq": OpSpec(4, _lstm_seq, {"reverse": bool}, weights=(None, 2, 2, 1)),
    "Concat": OpSpec(None, lambda *parts: np.concatenate(parts, axis=-1)),
    "SelfAttention": OpSpec(3, _self_attention, weights=(None, 2, 1)),
    "Highway": OpSpec(5, lambda *args: kernels.highway(*args)[0],
                      weights=(None, 2, 1, 2, 1)),
    "Softmax": OpSpec(1, lambda x: kernels.softmax(x, axis=-1)),
    "ArgMax": OpSpec(1, lambda x: kernels.argmax_last(x), gives_ids=True),
}


# graph attr -> whether a loaded value is well formed; the exporter writes all
# four, and a joint model exports one single-task graph per head
GRAPH_ATTRS = {
    "task": lambda v: isinstance(v, str) and v in (DOC_TASK, WORD_TASK),
    "labels": lambda v: isinstance(v, list) and all_str(v) and 0 < len(set(v)) == len(v),
    "lowercase": bool,
    "max_chars": lambda v: type(v) is int and 0 < v < MAX_CHARS,
}


# op and payload field -> whether a loaded value is well formed; which ops
# are valid is validate_graph's to check, from OPS. Every const is a finite
# float32 array; Vocabulary.from_table checks each vocab table as it is read.
_OP_FIELDS = {"opcode": str, "inputs": lambda v: isinstance(v, list) and all_str(v),
              "output": str, "attrs": dict}
_PAYLOAD_FIELDS = {
    "attrs": dict,
    "consts": binio.finite_arrays,
    "vocabs": lambda v: isinstance(v, dict) and set(v) <= set(VOCAB_NAMES),
    "ops": lambda v: isinstance(v, list) and all(
        binio.check_fields(op, _OP_FIELDS, "op %d" % i, CorruptGraph) for i, op in enumerate(v)),
}


def _validate_op(graph: StaticGraph, op: GraphOp, produced: set, ids: set) -> None:
    """One op against the table, given the names the feeds, consts and
    earlier ops give, and which of the computed ones hold integer ids."""
    spec = OPS.get(op.opcode)
    if spec is None:
        raise CorruptGraph("unknown opcode %r" % (op.opcode,))
    n = len(op.inputs)
    if n == 0 or spec.arity not in (None, n):
        raise CorruptGraph("op %s cannot take %d inputs" % (op.opcode, n))
    binio.check_fields(op.attrs, spec.attrs, "op %s attrs" % op.opcode, CorruptGraph)
    if "vocab" in op.attrs and op.attrs["vocab"] not in graph.vocabs:
        raise CorruptGraph("op %s needs vocab table %r" % (op.opcode, op.attrs["vocab"]))
    for slot, kind in zip(op.inputs, spec.weights or (None,) * n):
        if slot not in produced:
            raise CorruptGraph("op %s reads %r, which is no feed, const or earlier output"
                               % (op.opcode, slot))
        if slot in graph.consts:
            if graph.consts[slot].ndim != kind:
                raise CorruptGraph("op %s reads const %r of rank %d where it takes %s"
                                   % (op.opcode, slot, graph.consts[slot].ndim, _takes(kind)))
        elif (kind == TEXT) != (slot in _FEEDS):
            raise CorruptGraph("op %s reads %r where it takes %s"
                               % (op.opcode, slot, _takes(kind)))
        elif slot not in _FEEDS:
            # a computed value: integer ids if an op that gives them wrote it;
            # a weight position takes a computed float as well as a const
            held, wanted = (IDS if slot in ids else None), (IDS if kind == IDS else None)
            if held != wanted:
                raise CorruptGraph("op %s reads %r, %s, where it takes %s"
                                   % (op.opcode, slot, _takes(held), _takes(wanted)))


def _takes(kind) -> str:
    return {None: "float values", TEXT: TEXT, IDS: IDS}.get(kind) or "rank %d" % kind


def validate_graph(graph: StaticGraph) -> None:
    """What a graph of well-formed parts, as deserialize checks them and the
    exporter makes them, can still get wrong: topology, opcodes, arity, op
    attrs, vocab presence, const ranks, text feeds, which computed values
    are integer ids and which floats, pred and scores, and the label count.
    Raises CorruptGraph on any violation and changes nothing."""
    fed_consts = set(graph.consts) & set(_FEEDS)
    if fed_consts:
        raise CorruptGraph("const %r is named like a raw text feed" % sorted(fed_consts)[0])
    produced = set(graph.consts) | set(_FEEDS)
    ids = set()
    for op in graph.ops:
        _validate_op(graph, op, produced, ids)
        if op.output in produced:
            raise CorruptGraph("op %s writes %r, which a feed, const or earlier op holds"
                               % (op.opcode, op.output))
        produced.add(op.output)
        if OPS[op.opcode].gives_ids:
            ids.add(op.output)
    # pred and scores are the ArgMax and the Softmax of one value, and there
    # is one label per class: per entry of the bias of the MatMulAdd under them
    producer = {op.output: op for op in graph.ops}
    softmax, argmax = producer.get("scores"), producer.get("pred")
    if not (softmax and argmax and (softmax.opcode, argmax.opcode) == ("Softmax", "ArgMax")
            and argmax.inputs == softmax.inputs):
        raise CorruptGraph("graph does not end in scores and pred, the Softmax and the "
                           "ArgMax of one value")
    head = producer.get(softmax.inputs[0])
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
    }
    return binio.pack_container(GRAPH_MAGIC, GRAPH_VERSION, payload)


def _read_vocabs(tables) -> dict:
    """The Vocabulary over each stored table, which from_table checks."""
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
    binio.check_fields(payload, _PAYLOAD_FIELDS, "graph", CorruptGraph)
    binio.check_fields(payload["attrs"], GRAPH_ATTRS, "graph attrs", CorruptGraph)
    # the payload's fields are StaticGraph's, and each op's are GraphOp's
    ops = [GraphOp(**dict(o, inputs=tuple(o["inputs"]))) for o in payload["ops"]]
    graph = StaticGraph(**dict(payload, vocabs=_read_vocabs(payload["vocabs"]), ops=ops))
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
        return {"pred": env["pred"], "scores": env["scores"]}


def prepare_feed(graph: StaticGraph, inp) -> dict:
    """Turn raw text or a FeaturizedExample into every raw text feed.

    Text is featurized with the graph's own settings and no gazetteer. Any
    other input raises InputTypeMismatch.
    """
    if isinstance(inp, str):
        inp = featurize(inp, (), lowercase=graph.attrs["lowercase"])
    if not isinstance(inp, FeaturizedExample):
        raise InputTypeMismatch("a graph consumes text or a featurized example, not %s"
                                % type(inp).__name__)
    return {name: give(inp) for name, give in _FEEDS.items()}


def run(executor: Executor, inp) -> dict:
    """Single-example inference: raw input in, prediction and scores out.
    A word tagger's pred is one tag per token, any other graph's one label."""
    out = executor.run_feed(prepare_feed(executor.graph, inp))
    task = executor.graph.attrs["task"]
    if out["pred"].ndim != (task == WORD_TASK):
        raise CorruptGraph("graph attr 'task' is %r, but the graph predicts a pred of rank %d"
                           % (task, out["pred"].ndim))
    return out
