"""Lowering trained models to static inference graphs.

Each module class has a lowering that emits graph ops mirroring its forward
pass exactly; the interpreter then reuses the same kernels, which is what
makes exported predictions match eager ones bit for bit. Exports start
unbaked (integer id inputs); prepend_vocab folds the vocabularies in so the
artifact consumes raw tokens with no training code in sight.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import components
from .data_handler import VocabBundle, single_example_batch
from .errors import EmptySampleSet, UnsupportedModule, VocabAlreadyBaked
from .graph import GRAPH_VERSION, Executor, GraphOp, StaticGraph, run, validate_graph
from .model_zoo import (BiLSTMAttnRepresentation, BiLSTMTaggerRepresentation,
                        DocNNRepresentation, MLPDecoder, MultiTaskModel,
                        SingleTaskModel, TokenEmbedding)
from .trainer import derive_rng

F32 = np.float32


class IdInput(NamedTuple):
    """How one integer id input of an unbaked graph is fed and baked."""
    raw: str      # the string input a baked graph reads in its place
    vocab: str    # the VocabBundle field (and vocab table) that maps it
    lookup: str   # the opcode that maps raw strings to ids
    dim: str      # the TokenEmbedding width that makes a model read it


ID_INPUTS = {
    "token_ids": IdInput("tokens", "token", "LookupTokens", "word_dim"),
    "char_ids": IdInput("tokens", "char", "LookupChars", "char_dim"),
    "gaz_ids": IdInput("gaz_labels", "gaz", "LookupTokens", "gaz_dim"),
    "cap_ids": IdInput("cap_labels", "cap", "LookupTokens", "cap_dim"),
}


class GraphBuilder:
    def __init__(self, attrs):
        self.attrs = attrs
        self.slots = {}
        self.consts = {}
        self.ops = []
        self.inputs = []

    def slot(self, base: str, kind: str) -> str:
        name = base
        i = 2
        while name in self.slots:
            name = "%s_%d" % (base, i)
            i += 1
        self.slots[name] = kind
        return name

    def add_input(self, name: str, kind: str) -> str:
        name = self.slot(name, kind)
        self.inputs.append(name)
        return name

    def const(self, name: str, array) -> str:
        # parameter paths are unique per model, so no renaming here
        if name in self.consts:
            return name
        self.slots[name] = "f32"
        self.consts[name] = array
        return name

    def emit(self, opcode, inputs, outputs, **attrs):
        self.ops.append(GraphOp(opcode, tuple(inputs), tuple(outputs), dict(attrs)))

    def finish(self, outputs) -> StaticGraph:
        graph = StaticGraph(
            version=GRAPH_VERSION,
            attrs=self.attrs,
            slots=self.slots,
            consts=self.consts,
            vocab_tables={},
            ops=self.ops,
            inputs=self.inputs,
            outputs=list(outputs),
        )
        validate_graph(graph)
        return graph


def _param_paths(model) -> dict:
    """id(param) -> dotted path, so const names match parameter names."""
    return {id(p): path for path, p in model.named_parameters().items()}


def _pconst(b: GraphBuilder, paths: dict, param) -> str:
    return b.const(paths[id(param)], param.data)


def _lower_embedding(b, emb: TokenEmbedding, feeds: dict, paths: dict) -> str:
    parts = []
    if emb.word_dim:
        table = _pconst(b, paths, emb.word_table)
        out = b.slot("word_emb", "f32")
        b.emit("EmbedGather", (feeds["token_ids"], table), (out,))
        parts.append(out)
    if emb.char_dim:
        table = _pconst(b, paths, emb.char_table)
        chars = b.slot("char_emb", "f32")
        b.emit("EmbedGather", (feeds["char_ids"], table), (chars,))
        pooled = []
        for width, filt in zip(emb.char_widths, emb.char_conv):
            out = b.slot("char_pool%d" % width, "f32")
            b.emit("Conv1DMaxPool", (chars, _pconst(b, paths, filt)), (out,))
            pooled.append(out)
        cur = pooled[0]
        if len(pooled) > 1:
            cur = b.slot("char_cat", "f32")
            b.emit("Concat", tuple(pooled), (cur,), axis=-1)
        for i, (wt, bt, wg, bg) in enumerate(emb.highway):
            nxt = b.slot("char_hw%d" % i, "f32")
            b.emit("Highway", (cur, _pconst(b, paths, wt), _pconst(b, paths, bt),
                               _pconst(b, paths, wg), _pconst(b, paths, bg)), (nxt,))
            cur = nxt
        parts.append(cur)
    if emb.gaz_dim:
        out = b.slot("gaz_emb", "f32")
        b.emit("EmbedGather", (feeds["gaz_ids"], _pconst(b, paths, emb.gaz_table)), (out,))
        parts.append(out)
    if emb.cap_dim:
        out = b.slot("cap_emb", "f32")
        b.emit("EmbedGather", (feeds["cap_ids"], _pconst(b, paths, emb.cap_table)), (out,))
        parts.append(out)
    if len(parts) > 1:
        out = b.slot("embedding", "f32")
        b.emit("Concat", tuple(parts), (out,), axis=-1)
        return out
    return parts[0]


def _lower_bilstm(b, mod, x_slot: str, paths: dict, tag: str) -> str:
    halves = []
    for direction, reverse in (("fwd", False), ("bwd", True)):
        p = mod._params
        out = b.slot("%s_%s" % (tag, direction), "f32")
        b.emit("LSTMSeq",
               (x_slot, _pconst(b, paths, p["%s.w_ih" % direction]),
                _pconst(b, paths, p["%s.w_hh" % direction]),
                _pconst(b, paths, p["%s.bias" % direction])),
               (out,), reverse=reverse)
        halves.append(out)
    cat = b.slot(tag, "f32")
    b.emit("Concat", tuple(halves), (cat,), axis=-1)
    return cat


def _lower_docnn(b, rep: DocNNRepresentation, emb_slot: str, paths: dict) -> str:
    pooled = []
    for width, filt in zip(rep.widths, rep.filters):
        out = b.slot("doc_pool%d" % width, "f32")
        b.emit("Conv1DMaxPool", (emb_slot, _pconst(b, paths, filt)), (out,))
        pooled.append(out)
    if len(pooled) > 1:
        out = b.slot("representation", "f32")
        b.emit("Concat", tuple(pooled), (out,), axis=-1)
        return out
    return pooled[0]


def _lower_bilstm_attn(b, rep: BiLSTMAttnRepresentation, emb_slot: str, paths: dict) -> str:
    hidden = _lower_bilstm(b, rep.bilstm, emb_slot, paths, "bilstm")
    out = b.slot("representation", "f32")
    b.emit("SelfAttention",
           (hidden, _pconst(b, paths, rep._params["attn.w1"]),
            _pconst(b, paths, rep._params["attn.w2"])), (out,))
    return out


def _lower_bilstm_tagger(b, rep: BiLSTMTaggerRepresentation, emb_slot: str, paths: dict) -> str:
    return _lower_bilstm(b, rep.bilstm, emb_slot, paths, "bilstm")


def _lower_mlp(b, dec: MLPDecoder, rep_slot: str, paths: dict) -> str:
    cur = rep_slot
    for i in range(dec.n_layers):
        out = b.slot("dec%d" % i, "f32")
        b.emit("MatMulAdd",
               (cur, _pconst(b, paths, dec._params["w%d" % i]),
                _pconst(b, paths, dec._params["b%d" % i])), (out,))
        cur = out
        if i < dec.n_layers - 1:
            act = b.slot("dec%d_relu" % i, "f32")
            b.emit("Relu", (cur,), (act,))
            cur = act
    return cur


_REP_LOWERINGS = {
    DocNNRepresentation: _lower_docnn,
    BiLSTMAttnRepresentation: _lower_bilstm_attn,
    BiLSTMTaggerRepresentation: _lower_bilstm_tagger,
}

_DEC_LOWERINGS = {
    MLPDecoder: _lower_mlp,
}


def _lowering(table, module):
    fn = table.get(type(module))
    if fn is None:
        raise UnsupportedModule("no graph lowering for %s" % type(module).__name__)
    return fn


def export_model(model: SingleTaskModel, featurizer_settings, labels, task) -> StaticGraph:
    """Lower one trained model to an unbaked graph (integer id inputs)."""
    if not isinstance(model, SingleTaskModel):
        raise UnsupportedModule("can only export single-task models; "
                                "multi-task models export one graph per head")
    emb = model.embedding
    if not isinstance(emb, TokenEmbedding):
        raise UnsupportedModule("no graph lowering for %s" % type(emb).__name__)
    attrs = {
        "task": task,
        "labels": list(labels),
        "lowercase": bool(featurizer_settings.lowercase),
        "max_chars": int(featurizer_settings.max_chars),
    }
    b = GraphBuilder(attrs)
    paths = _param_paths(model)

    feeds = {slot: b.add_input(slot, "i64")
             for slot, row in ID_INPUTS.items() if getattr(emb, row.dim)}

    emb_slot = _lower_embedding(b, emb, feeds, paths)
    rep_slot = _lowering(_REP_LOWERINGS, model.representation)(b, model.representation,
                                                               emb_slot, paths)
    logits = _lowering(_DEC_LOWERINGS, model.decoder)(b, model.decoder, rep_slot, paths)

    scores = b.slot("scores", "f32")
    b.emit("Softmax", (logits,), (scores,))
    # argmax reads the logits: equal logits stay equal after softmax, but
    # distinct ones can round to a tie in f32 probability space
    pred = b.slot("pred", "i64")
    b.emit("ArgMax", (logits,), (pred,))
    return b.finish(("pred", "scores"))


def prepend_vocab(graph: StaticGraph, vocabs: VocabBundle) -> StaticGraph:
    """Bake vocabularies: raw token inputs, lookup ops ahead of the old body."""
    if graph.vocab_tables:
        raise VocabAlreadyBaked("graph already has vocabularies baked in")

    slots = dict(graph.slots)
    tables = {}
    lookups = []
    inputs = []

    for old in graph.inputs:
        row = ID_INPUTS.get(old)
        if row is None:
            raise UnsupportedModule("cannot bake vocabularies over input %r" % old)
        if row.raw not in inputs:
            inputs.append(row.raw)
            slots[row.raw] = "str"
        tables[row.vocab] = list(getattr(vocabs, row.vocab).entries)
        attrs = {"vocab": row.vocab}
        if row.lookup == "LookupChars":
            attrs["max_chars"] = graph.attrs["max_chars"]
        lookups.append(GraphOp(row.lookup, (row.raw,), (old,), attrs))

    baked = StaticGraph(
        version=graph.version,
        attrs=dict(graph.attrs),
        slots=slots,
        consts=dict(graph.consts),
        vocab_tables=tables,
        ops=lookups + list(graph.ops),
        inputs=inputs,
        outputs=list(graph.outputs),
    )
    validate_graph(baked)
    return baked


def export_pipeline(pipe, bake=None):
    """Graph(s) for a trained pipeline: one, or a per-head dict for joint."""
    if bake is None:
        bake = pipe.export.bake_vocab
    settings = pipe.featurizer.settings

    def finish(model, labels, task):
        g = export_model(model, settings, labels, task)
        return prepend_vocab(g, pipe.vocabs) if bake else g

    if pipe.task == components.JOINT_TASK:
        model: MultiTaskModel = pipe.model
        return {
            "doc": finish(model.tasks["doc"], pipe.doc_labels, components.DOC_TASK),
            "word": finish(model.tasks["word"], pipe.word_tags, components.WORD_TASK),
        }
    labels = pipe.doc_labels if pipe.task == components.DOC_TASK else pipe.word_tags
    return finish(pipe.model, labels, pipe.task)


# --- equivalence checking between eager and exported inference ---

@dataclass
class EquivalenceReport:
    max_abs_dev: float
    argmax_agree: bool
    n_samples: int

    @property
    def ok(self):
        return self.argmax_agree

    def within(self, tol: float) -> bool:
        return self.argmax_agree and self.max_abs_dev <= tol


def _synthetic_texts(n: int, rng) -> list:
    """Random letter soup, including an empty text and shape variety."""
    texts = []
    for i in range(n):
        if i == 0:
            texts.append("")
            continue
        words = []
        for _ in range(int(rng.integers(1, 13))):
            length = int(rng.integers(1, 11))
            chars = [chr(ord("a") + int(c)) for c in rng.integers(0, 26, size=length)]
            if rng.integers(0, 4) == 0:
                chars[0] = chars[0].upper()
            words.append("".join(chars))
        texts.append(" ".join(words))
    return texts


def _split_texts(pipe, n: int, head) -> list:
    if not pipe.datasets or n <= 0:
        return []
    ds = pipe.datasets.get("test") or pipe.datasets.get("eval")
    if ds is None:
        return []
    if isinstance(ds, list):
        ds = ds[1] if head == "word" else ds[0]
    return [ex.raw_text for ex in ds.examples[:n]]


def verify_equivalence(pipe, graph: StaticGraph, n_samples: int = 20,
                       seed: int = 0, head=None) -> EquivalenceReport:
    """Run eager and exported inference side by side on real and random text.

    Uses up to n_samples held-out texts plus n_samples synthetic ones and
    reports the largest probability deviation and whether every prediction
    matched exactly.
    """
    if n_samples <= 0:
        raise EmptySampleSet("need at least one sample to compare")
    texts = _split_texts(pipe, n_samples, head)
    texts += _synthetic_texts(n_samples, derive_rng(seed, 2))

    model = pipe.model.tasks[head] if head is not None else pipe.model
    ex = Executor(graph)
    max_dev = 0.0
    agree = True
    for text in texts:
        feats = pipe.featurizer.featurize(text)
        batch = single_example_batch(feats, pipe.vocabs, pipe.max_chars)
        out = model.forward(batch, compute_loss=False)
        ids = {"token_ids": batch.token_ids[0], "char_ids": batch.char_ids[0],
               "gaz_ids": batch.dense_feats["gaz"][0], "cap_ids": batch.dense_feats["cap"][0]}
        res = run(ex, feats if graph.baked else ids)
        e_scores = out.scores[0]
        g_scores = res["scores"]
        if e_scores.shape != g_scores.shape:
            agree = False
            max_dev = float("inf")
            continue
        if g_scores.size:
            max_dev = max(max_dev, float(np.abs(e_scores - g_scores).max()))
        if not np.array_equal(out.preds[0], res["pred"]):
            agree = False
    return EquivalenceReport(max_dev, agree, len(texts))
