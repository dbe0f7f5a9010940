"""Exporting trained models as static inference graphs by tracing them.

export_model runs a model's eager forward once, on an unpadded batch of one
example, while every op that has a graph opcode reports itself through
ops.trace_hook; a model stage is described once, by its forward. The tracer
turns the reports into graph ops: each parameter becomes the const named by
its path in the model, and the batch's id arrays become lookup ops over the
raw string inputs with the pipeline's own Vocabularies attached, so the
artifact consumes raw text with no training code in sight. The interpreter
reuses the eager kernels, which is what makes exported predictions match
eager ones bit for bit; verify_equivalence checks that.
"""

from dataclasses import dataclass

import numpy as np

from . import components, ops
from .data_handler import VocabBundle, single_example_batch
from .errors import EmptySampleSet, UnsupportedModule
from .featurizer import featurize
from .graph import Executor, GraphOp, StaticGraph, run, validate_graph
from .model_zoo import SingleTaskModel
from .trainer import derive_rng

TRACE_TEXT = "trace one example"  # whose forward export_model traces; any text does


class _Tracer:
    """The graph ops of one forward pass over a batch of one, from the reports
    of ops.trace_hook. A value that is no model parameter, id array of the
    batch or reported op's output raises UnsupportedModule: nothing unseen is
    baked into the graph. ArgMax and Softmax write the graph outputs."""

    def __init__(self, graph: StaticGraph, model, batch, vocabs: VocabBundle):
        self.graph, self.vocabs = graph, vocabs
        self.paths = {id(p): path for path, p in model.named_parameters().items()}
        self.lookups = {id(ids): spec for ids, spec in (
            (batch.token_ids, ("LookupTokens", "tokens", "token")),
            (batch.char_ids, ("LookupChars", "tokens", "char")),
            (batch.dense_feats["gaz"], ("LookupTokens", "gaz_labels", "gaz")),
            (batch.dense_feats["cap"], ("LookupTokens", "cap_labels", "cap")))}
        self.slots = {}  # id(value) -> (value, slot); holding the value keeps its id unique

    def slot(self, value) -> str:
        key = id(value)
        if key in self.paths:
            self.graph.consts[self.paths[key]] = value.data
            return self.paths[key]
        if key in self.slots:
            return self.slots[key][1]
        if key in self.lookups:
            opcode, raw, table = self.lookups[key]
            self.graph.vocabs[table] = getattr(self.vocabs, table)
            if raw not in self.graph.inputs:
                self.graph.inputs.append(raw)
            return self.emit(opcode, value, (raw,), {"vocab": table})
        raise UnsupportedModule("the traced forward reads a %s that no traced op made"
                                % type(value).__name__)

    def emit(self, opcode: str, out, names, attrs) -> str:
        name = {"ArgMax": "pred", "Softmax": "scores"}.get(opcode) or str(len(self.graph.ops))
        self.graph.ops.append(GraphOp(opcode, tuple(names), name, attrs))
        self.slots[id(out)] = (out, name)
        return name

    def __call__(self, opcode: str, out, inputs, mask, attrs):
        if mask is not None and not np.all(mask == 1):
            raise UnsupportedModule("%s ran under a padded mask" % opcode)
        names = [self.slot(x) for x in inputs]
        if opcode != "Reshape":
            self.emit(opcode, out, names, attrs)
        elif (1,) + out.shape == inputs[0].shape or out.shape == (1,) + inputs[0].shape:
            self.slots[id(out)] = (out, names[0])  # the graph has no batch axis
        else:
            raise UnsupportedModule("reshape %s -> %s changes more than the batch axis"
                                    % (inputs[0].shape, out.shape))


def export_model(model: SingleTaskModel, featurizer_settings, labels, task,
                 vocabs: VocabBundle) -> StaticGraph:
    """Trace one trained model into a graph over raw string inputs, with the
    vocabularies baked in."""
    if not isinstance(model, SingleTaskModel):
        raise UnsupportedModule("can only export single-task models; "
                                "multi-task models export one graph per head")
    attrs = {
        "task": task,
        "labels": list(labels),
        "lowercase": bool(featurizer_settings.lowercase),
        "max_chars": int(featurizer_settings.max_chars),
    }
    graph = StaticGraph(attrs, consts={}, vocabs={}, ops=[], inputs=[],
                        outputs=["pred", "scores"])
    feats = featurize(TRACE_TEXT, lowercase=attrs["lowercase"])
    batch = single_example_batch(feats, vocabs, attrs["max_chars"])
    ops.trace_hook = _Tracer(graph, model, batch, vocabs)
    try:
        model.forward(batch, compute_loss=False)
    finally:
        ops.trace_hook = None
    validate_graph(graph)
    return graph


def export_pipeline(pipe):
    """Graph(s) for a trained pipeline: one, or a per-head dict for joint."""
    settings, vocabs = pipe.featurizer.settings, pipe.vocabs
    if pipe.task == components.JOINT_TASK:
        return {head: export_model(pipe.model.tasks[head], settings, pipe.labels(task), task,
                                   vocabs)
                for task, head in components.JOINT_HEADS.items()}
    return export_model(pipe.model, settings, pipe.labels(pipe.task), pipe.task, vocabs)


# --- equivalence checking between eager and exported inference ---

@dataclass
class EquivalenceReport:
    max_abs_dev: float
    argmax_agree: bool
    n_samples: int

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
        batch = single_example_batch(feats, pipe.vocabs, pipe.char_width)
        out = model.forward(batch, compute_loss=False)
        res = run(ex, feats)
        e_scores = out.scores[0]
        g_scores = res["scores"]
        if e_scores.shape != g_scores.shape:
            agree = False
            max_dev = float("inf")
            continue
        if g_scores.size:
            # np.maximum keeps a NaN deviation where max() would drop it
            max_dev = float(np.maximum(max_dev, np.abs(e_scores - g_scores).max()))
        if not np.array_equal(out.preds[0], res["pred"]):
            agree = False
    return EquivalenceReport(max_dev, agree, len(texts))
