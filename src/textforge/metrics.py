"""Evaluation metrics from confusion counts.

Counts of (gold, predicted) id pairs add up, so an eval split is scored from
the sum of its batches' counts. Any 0/0 is defined as 0.0, so empty classes
and empty prediction sets give well-defined scores instead of NaN.
"""

import numpy as np

from .errors import EmptyEval, LengthMismatch


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def precision_recall_f1(tp: int, fp: int, fn: int):
    p = _safe_div(tp, tp + fp)
    r = _safe_div(tp, tp + fn)
    f1 = _safe_div(2.0 * p * r, p + r)
    return p, r, f1


def confusion(golds, preds, n_classes: int) -> np.ndarray:
    """[n_classes, n_classes] int64 counts of (gold, pred) ids: row gold,
    column pred. golds and preds are ids of one shape, arrays or lists."""
    golds = np.asarray(golds, dtype=np.int64)
    preds = np.asarray(preds, dtype=np.int64)
    if golds.shape != preds.shape:
        raise LengthMismatch("golds %s vs preds %s" % (golds.shape, preds.shape))
    pairs = (golds * n_classes + preds).ravel()
    return np.bincount(pairs, minlength=n_classes * n_classes).reshape(n_classes, n_classes)


def scores(counts: np.ndarray):
    """(accuracy, unweighted macro F1) of a confusion matrix.

    Every class contributes to the macro average, including classes with
    zero support. The F1s add up one by one in class order: numpy's pairwise
    sum, or sum() from Python 3.12, can round differently.
    """
    total = int(counts.sum())
    if not total:
        raise EmptyEval("no examples to score")
    tp = counts.diagonal().tolist()
    gold_total = counts.sum(axis=1).tolist()
    pred_total = counts.sum(axis=0).tolist()
    f1_sum = 0.0
    for hits, gold, pred in zip(tp, gold_total, pred_total):
        f1_sum += precision_recall_f1(hits, pred - hits, gold - hits)[2]
    return sum(tp) / total, _safe_div(f1_sum, len(tp))


def frame_hits(doc_gold, doc_pred, tag_gold, tag_pred, mask) -> int:
    """The number of examples whose document label and every tag where
    mask > 0 are right, from arrays: doc ids [b], tag ids and mask [b, t]."""
    if not (mask.ndim == 2 and doc_gold.shape == doc_pred.shape == mask.shape[:1]
            and tag_gold.shape == tag_pred.shape == mask.shape):
        raise LengthMismatch("frame inputs disagree on shape")
    tag_wrong = ((tag_gold != tag_pred) & (mask > 0)).any(axis=1)
    return int(np.count_nonzero((doc_gold == doc_pred) & ~tag_wrong))
