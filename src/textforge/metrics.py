"""Evaluation metrics for document and word level tasks.

Division conventions are fixed: any 0/0 is defined as 0.0 so empty classes
and empty prediction sets produce well-defined scores instead of NaN.
"""

from dataclasses import dataclass, field
from typing import Dict, List

from .errors import EmptyEval, LengthMismatch


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class ClassPRF:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class ClassificationReport:
    accuracy: float
    macro_f1: float
    per_class: Dict[int, ClassPRF] = field(default_factory=dict)
    n_examples: int = 0


def precision_recall_f1(tp: int, fp: int, fn: int):
    p = _safe_div(tp, tp + fp)
    r = _safe_div(tp, tp + fn)
    f1 = _safe_div(2.0 * p * r, p + r)
    return p, r, f1


def classification_report(golds: List[int], preds: List[int], n_classes: int) -> ClassificationReport:
    """Accuracy plus per-class P/R/F1 and unweighted macro F1.

    Every class id in [0, n_classes) contributes to the macro average,
    including classes with zero support.
    """
    if len(golds) != len(preds):
        raise LengthMismatch("golds %d vs preds %d" % (len(golds), len(preds)))
    if not golds:
        raise EmptyEval("no examples to score")
    tp = [0] * n_classes
    fp = [0] * n_classes
    fn = [0] * n_classes
    correct = 0
    for g, p in zip(golds, preds):
        if g == p:
            correct += 1
            tp[g] += 1
        else:
            fp[p] += 1
            fn[g] += 1
    per_class = {}
    f1_sum = 0.0
    for c in range(n_classes):
        p, r, f1 = precision_recall_f1(tp[c], fp[c], fn[c])
        per_class[c] = ClassPRF(p, r, f1, tp[c] + fn[c])
        f1_sum += f1
    return ClassificationReport(
        accuracy=_safe_div(correct, len(golds)),
        macro_f1=_safe_div(f1_sum, n_classes),
        per_class=per_class,
        n_examples=len(golds),
    )


@dataclass
class TaggingReport:
    token_accuracy: float
    macro_f1: float
    per_class: Dict[int, ClassPRF] = field(default_factory=dict)
    n_tokens: int = 0
    n_sequences: int = 0


def tagging_report(gold_seqs: List[List[int]], pred_seqs: List[List[int]],
                   n_classes: int) -> TaggingReport:
    """Token-level scores over all sequences; padding must already be gone."""
    if len(gold_seqs) != len(pred_seqs):
        raise LengthMismatch("gold %d vs pred %d sequences" % (len(gold_seqs), len(pred_seqs)))
    flat_gold = []
    flat_pred = []
    for i, (g, p) in enumerate(zip(gold_seqs, pred_seqs)):
        if len(g) != len(p):
            raise LengthMismatch("sequence %d: gold %d vs pred %d tokens" % (i, len(g), len(p)))
        flat_gold.extend(g)
        flat_pred.extend(p)
    if not flat_gold:
        raise EmptyEval("no tokens to score")
    rep = classification_report(flat_gold, flat_pred, n_classes)
    return TaggingReport(
        token_accuracy=rep.accuracy,
        macro_f1=rep.macro_f1,
        per_class=rep.per_class,
        n_tokens=len(flat_gold),
        n_sequences=len(gold_seqs),
    )


def frame_accuracy(doc_gold: List[int], doc_pred: List[int],
                   tag_gold: List[List[int]], tag_pred: List[List[int]]) -> float:
    """Fraction of examples where the document label and every tag are right."""
    n = len(doc_gold)
    if not (n == len(doc_pred) == len(tag_gold) == len(tag_pred)):
        raise LengthMismatch("frame accuracy inputs disagree on example count")
    if n == 0:
        raise EmptyEval("no examples to score")
    hits = 0
    for dg, dp, tg, tp_ in zip(doc_gold, doc_pred, tag_gold, tag_pred):
        if len(tg) != len(tp_):
            raise LengthMismatch("tag sequences differ in length")
        if dg == dp and tg == tp_:
            hits += 1
    return hits / n
