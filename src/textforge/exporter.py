"""Exporting trained models as static inference graphs by tracing them.

export_model runs a model's eager forward once, on an unpadded batch of one
example, while every op that has a graph opcode reports itself through
ops.trace_hook; a model stage is described once, by its forward. The tracer
turns the reports into graph ops: each parameter becomes the const named by
its path in the model, and the batch's id arrays become lookup ops over the
graph's raw text feeds with the pipeline's own Vocabularies attached, so the
artifact consumes raw text with no training code in sight. ArgMax and
Softmax write pred and scores, the two values every graph ends in. The
interpreter reuses the eager kernels, which is what makes exported
predictions match eager ones bit for bit; verify_equivalence checks that on
texts sample_texts draws from the pipeline's own token vocabulary, the one
stream that `textforge bench` times too.
"""

from dataclasses import dataclass

import numpy as np

from . import components, ops
from .data_handler import VocabBundle, single_example_batch
from .errors import EmptySampleSet, UnsupportedModule
from .featurizer import featurize
from .graph import (CAP_LABELS, GAZ_LABELS, TOKENS, Executor, GraphOp, StaticGraph, run,
                    validate_graph)
from .model_zoo import SingleTaskModel
from .trainer import derive_rng

TRACE_TEXT = "trace one example"  # whose forward export_model traces; any text does


class _Tracer:
    """The graph ops of one forward pass over a batch of one, from the reports
    of ops.trace_hook. A value that is no model parameter, id array of the
    batch or reported op's output raises UnsupportedModule: nothing unseen is
    baked into the graph. ArgMax and Softmax write pred and scores."""

    def __init__(self, graph: StaticGraph, model, batch, vocabs: VocabBundle):
        self.graph, self.vocabs = graph, vocabs
        self.paths = {id(p): path for path, p in model.named_parameters().items()}
        self.lookups = {id(ids): spec for ids, spec in (
            (batch.token_ids, ("LookupTokens", TOKENS, "token")),
            (batch.char_ids, ("LookupChars", TOKENS, "char")),
            (batch.dense_feats["gaz"], ("LookupTokens", GAZ_LABELS, "gaz")),
            (batch.dense_feats["cap"], ("LookupTokens", CAP_LABELS, "cap")))}
        self.slots = {}  # id(value) -> (value, slot); holding the value keeps its id unique

    def slot(self, value) -> str:
        key = id(value)
        if key in self.paths:
            self.graph.consts[self.paths[key]] = value.data
            return self.paths[key]
        if key in self.slots:
            return self.slots[key][1]
        if key in self.lookups:
            opcode, feed, table = self.lookups[key]
            self.graph.vocabs[table] = getattr(self.vocabs, table)
            return self.emit(opcode, value, (feed,), {"vocab": table})
        raise UnsupportedModule("the traced forward reads a %s that no traced op made"
                                % type(value).__name__)

    def emit(self, opcode: str, out, names, attrs) -> str:
        name = {"ArgMax": "pred", "Softmax": "scores"}.get(opcode) or str(len(self.graph.ops))
        self.graph.ops.append(GraphOp(opcode, tuple(names), name, attrs))
        self.slots[id(out)] = (out, name)
        return name

    def __call__(self, opcode: str, out, inputs, lengths, attrs):
        if lengths is not None:
            raise UnsupportedModule("%s ran on a padded batch" % opcode)
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
    """Trace one trained model into a graph over the raw text feeds, with the
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
    graph = StaticGraph(attrs, consts={}, vocabs={}, ops=[])
    feats = featurize(TRACE_TEXT, lowercase=attrs["lowercase"])
    # a model that embeds no chars reads no char block, so it traces none
    batch = single_example_batch(feats, vocabs,
                                 attrs["max_chars"] if model.embedding.char_dim else 0)
    ops.trace_hook = _Tracer(graph, model, batch, vocabs)
    try:
        with ops.inference():
            model.forward(batch, compute_loss=False)
    finally:
        ops.trace_hook = None
    validate_graph(graph)
    return graph


def export_pipeline(pipe):
    """Graph(s) for a trained pipeline: one, or a per-head dict for joint."""
    settings, vocabs = pipe.featurizer.settings, pipe.vocabs
    if pipe.task == components.JOINT_TASK:
        return {head: export_model(pipe.model.tasks[head], settings, pipe.labels[head], task,
                                   vocabs)
                for task, head in components.JOINT_HEADS.items()}
    return export_model(pipe.model, settings, pipe.labels[components.JOINT_HEADS[pipe.task]],
                        pipe.task, vocabs)


# --- equivalence checking between eager and exported inference ---

@dataclass
class EquivalenceReport:
    max_abs_dev: float
    argmax_agree: bool
    n_samples: int
    finite: bool = True  # every eager score was finite

    def within(self, tol: float) -> bool:
        return self.argmax_agree and self.max_abs_dev <= tol


def sample_texts(vocab, n: int, rng) -> list:
    """n texts for equivalence checks and latency runs: the empty text, then
    texts of 1-12 words. Each word is an entry of the Vocabulary vocab past
    <pad> and <unk>, or letter soup (out of vocabulary); a quarter of words
    are capitalized. Where vocab holds nothing past the two specials every
    word is soup."""
    known = vocab.entries[2:]
    texts = [""]
    for _ in range(1, n):
        words = []
        for _ in range(int(rng.integers(1, 13))):
            if known and rng.integers(0, 2):
                word = known[int(rng.integers(0, len(known)))]
            else:
                word = "".join(chr(ord("a") + int(c))
                               for c in rng.integers(0, 26, size=int(rng.integers(1, 11))))
            if rng.integers(0, 4) == 0:
                word = word[:1].upper() + word[1:]
            words.append(word)
        texts.append(" ".join(words))
    return texts


def verify_equivalence(pipe, graph: StaticGraph, n_samples: int = 20,
                       seed: int = 0, head=None) -> EquivalenceReport:
    """Run eager and exported inference side by side on n_samples texts that
    sample_texts draws from the pipeline's token vocabulary, so in-vocabulary
    words read trained rows. head selects the joint model's head the graph
    was exported from. Reports the largest probability deviation (0 when
    every score has the same bits), whether every prediction matched
    exactly, and whether every eager score was finite.
    """
    if n_samples <= 0:
        raise EmptySampleSet("need at least one sample to compare")
    texts = sample_texts(pipe.vocabs.token, n_samples, derive_rng(seed, 2))

    model = pipe.model.tasks[head] if head is not None else pipe.model
    ex = Executor(graph)
    max_dev = 0.0
    agree = finite = True
    for text in texts:
        feats = pipe.featurizer.featurize(text)
        batch = single_example_batch(feats, pipe.vocabs, pipe.char_width)
        with ops.inference():
            out = model.forward(batch, compute_loss=False)
        res = run(ex, feats)
        e_scores = out.scores[0]
        g_scores = res["scores"]
        finite = finite and bool(np.isfinite(e_scores).all())
        if e_scores.shape != g_scores.shape:
            agree = False
            max_dev = float("inf")
            continue
        # equal bits match, equal NaNs included; where the bits differ,
        # np.maximum keeps a NaN deviation where max() would drop it
        if not np.array_equal(e_scores.view(np.uint32), g_scores.view(np.uint32)):
            max_dev = float(np.maximum(max_dev, np.abs(e_scores - g_scores).max()))
        if not np.array_equal(out.preds[0], res["pred"]):
            agree = False
    return EquivalenceReport(max_dev, agree, len(texts), finite)
