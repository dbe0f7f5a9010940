"""Lowering trained models to static inference graphs.

export_model hands a GraphBuilder to the model, whose stages lower themselves
(see model_zoo), and validates the graph they build. The builder knows graphs,
not models: it names each parameter's const by its path in the model and
attaches the vocab table and the raw string input that each lookup op reads,
so the artifact consumes raw text with no training code in sight. The
interpreter reuses the eager kernels, which is what makes exported
predictions match eager ones bit for bit; verify_equivalence checks that.
"""

from dataclasses import dataclass

import numpy as np

from . import components
from .data_handler import VocabBundle, single_example_batch
from .errors import EmptySampleSet, UnsupportedModule
from .graph import Executor, GraphOp, StaticGraph, run, validate_graph
from .model_zoo import SingleTaskModel
from .tensor import Parameter
from .trainer import derive_rng


class GraphBuilder:
    """The graph under construction while a model's stages lower themselves.

    Each stage's lower(b, ...) emits the ops mirroring its forward pass and
    returns its output slot(s). Parameters become consts named by their path
    in the model, so const names match named_parameters().
    """

    def __init__(self, model, attrs):
        self.graph = StaticGraph(attrs=attrs, consts={}, vocab_tables={}, ops=[],
                                 inputs=[], outputs=[])
        self._paths = {id(p): path for path, p in model.named_parameters().items()}

    def lookup(self, opcode: str, out: str, raw: str, table: str, vocab) -> str:
        """An id slot: the output of a lookup op over the raw string input
        raw, reading the vocab table named table, which holds vocab's entries."""
        self.graph.vocab_tables[table] = list(vocab.entries)
        if raw not in self.graph.inputs:
            self.graph.inputs.append(raw)
        return self.emit(opcode, out, raw, vocab=table)

    def const(self, param: Parameter) -> str:
        name = self._paths[id(param)]
        self.graph.consts.setdefault(name, param.data)
        return name

    def emit(self, opcode: str, out: str, *inputs, **attrs) -> str:
        """Append one op writing slot out; inputs are slot names or Parameters."""
        names = tuple(self.const(x) if isinstance(x, Parameter) else x for x in inputs)
        self.graph.ops.append(GraphOp(opcode, names, out, attrs))
        return out

    def concat(self, out: str, parts: list) -> str:
        """Concat over the last axis, or the one part itself."""
        return self.emit("Concat", out, *parts) if len(parts) > 1 else parts[0]

    def finish(self, outputs) -> StaticGraph:
        self.graph.outputs = list(outputs)
        validate_graph(self.graph)
        return self.graph


def export_model(model: SingleTaskModel, featurizer_settings, labels, task,
                 vocabs: VocabBundle) -> StaticGraph:
    """Lower one trained model to a graph over raw string inputs, with the
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
    b = GraphBuilder(model, attrs)
    return b.finish(model.lower(b, vocabs))


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
