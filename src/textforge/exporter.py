"""Lowering trained models to static inference graphs.

Each model stage lowers itself: its lower method, beside its forward, emits
graph ops mirroring the forward pass exactly through a GraphBuilder. The
interpreter then reuses the same kernels, which is what makes exported
predictions match eager ones bit for bit. Exports start unbaked (integer id
inputs); prepend_vocab folds the vocabularies in so the artifact consumes raw
tokens with no training code in sight.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import components
from .data_handler import VocabBundle, single_example_batch
from .errors import EmptySampleSet, UnsupportedModule, VocabAlreadyBaked
from .graph import GRAPH_VERSION, Executor, GraphOp, StaticGraph, run, validate_graph
from .model_zoo import MultiTaskModel, SingleTaskModel
from .tensor import Parameter
from .trainer import derive_rng


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
    """The graph under construction while a model's stages lower themselves.

    Each stage's lower(b, x) emits the ops mirroring its forward pass and
    returns its output slot. Parameters become consts named by their path in
    the model, so const names match named_parameters().
    """

    def __init__(self, model, attrs):
        self.attrs = attrs
        self.slots = {}
        self.consts = {}
        self.ops = []
        self.inputs = []
        self._paths = {id(p): path for path, p in model.named_parameters().items()}

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

    def const(self, param: Parameter) -> str:
        # parameter paths are unique per model, so no renaming here
        name = self._paths[id(param)]
        if name not in self.consts:
            self.slots[name] = "f32"
            self.consts[name] = param.data
        return name

    def emit(self, opcode: str, out_base: str, *inputs, kind="f32", **attrs) -> str:
        """Append one op; inputs are slot names or Parameters. The output slot
        is declared before the parameters become consts."""
        out = self.slot(out_base, kind)
        names = tuple(self.const(x) if isinstance(x, Parameter) else x for x in inputs)
        self.ops.append(GraphOp(opcode, names, (out,), attrs))
        return out

    def concat(self, out_base: str, parts: list) -> str:
        """Concat over the last axis, or the one part itself."""
        return self.emit("Concat", out_base, *parts, axis=-1) if len(parts) > 1 else parts[0]

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


def export_model(model: SingleTaskModel, featurizer_settings, labels, task) -> StaticGraph:
    """Lower one trained model to an unbaked graph (integer id inputs)."""
    if not isinstance(model, SingleTaskModel):
        raise UnsupportedModule("can only export single-task models; "
                                "multi-task models export one graph per head")
    attrs = {
        "task": task,
        "labels": list(labels),
        "lowercase": bool(featurizer_settings.lowercase),
        "max_chars": int(featurizer_settings.max_chars),
    }
    b = GraphBuilder(model, attrs)
    emb = model.embedding
    feeds = {slot: b.add_input(slot, "i64")
             for slot, row in ID_INPUTS.items() if getattr(emb, row.dim)}
    logits = model.decoder.lower(b, model.representation.lower(b, emb.lower(b, feeds)))
    b.emit("Softmax", "scores", logits)
    # argmax reads the logits: equal logits stay equal after softmax, but
    # distinct ones can round to a tie in f32 probability space
    b.emit("ArgMax", "pred", logits, kind="i64")
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
    """Up to n texts of the test split, else the eval split; the joint word
    head reads the second source."""
    if not pipe.datasets or n <= 0:
        return []
    sources = pipe.datasets["test"] or pipe.datasets["eval"]
    ds = sources[1] if head == "word" else sources[0]
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
