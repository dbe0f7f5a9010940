"""Metric oracles worked out by hand, plus the fixed 0/0 -> 0 convention, and
the list-based reports that scores from confusion counts must equal bit for bit."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from textforge.errors import EmptyEval, LengthMismatch
from textforge.metrics import confusion, frame_hits, precision_recall_f1, scores


# -- the list-based reports evaluation used before it scored from counts ------

def classification_report(golds, preds, n_classes):
    """(accuracy, macro F1) from per-example id lists, one pair at a time."""
    tp, fp, fn = [0] * n_classes, [0] * n_classes, [0] * n_classes
    correct = 0
    for g, p in zip(golds, preds):
        if g == p:
            correct += 1
            tp[g] += 1
        else:
            fp[p] += 1
            fn[g] += 1
    f1_sum = 0.0
    for c in range(n_classes):
        f1_sum += precision_recall_f1(tp[c], fp[c], fn[c])[2]
    return correct / len(golds), (f1_sum / n_classes if n_classes else 0.0)


def tagging_report(gold_seqs, pred_seqs, n_classes):
    """(token accuracy, macro F1) over sequences with the padding gone."""
    return classification_report([x for seq in gold_seqs for x in seq],
                                 [x for seq in pred_seqs for x in seq], n_classes)


def frame_accuracy(doc_gold, doc_pred, tag_gold, tag_pred):
    hits = sum(dg == dp and tg == tp for dg, dp, tg, tp
               in zip(doc_gold, doc_pred, tag_gold, tag_pred))
    return hits / len(doc_gold)


def class_scores(golds, preds, n_classes):
    return scores(confusion(golds, preds, n_classes))


def padded(seqs, fill):
    """[b, t] ids and mask of sequences, padded with fill."""
    t = max(map(len, seqs))
    ids = np.array([seq + [fill] * (t - len(seq)) for seq in seqs], dtype=np.int64)
    mask = np.array([[1.0] * len(seq) + [0.0] * (t - len(seq)) for seq in seqs],
                    dtype=np.float32)
    return ids, mask


class TestPRF:
    def test_hand_values(self):
        p, r, f1 = precision_recall_f1(tp=2, fp=2, fn=0)
        assert (p, r) == (0.5, 1.0)
        assert f1 == pytest.approx(2 / 3)

    def test_zero_division_is_zero(self):
        assert precision_recall_f1(0, 0, 0) == (0.0, 0.0, 0.0)
        p, r, f1 = precision_recall_f1(0, 3, 0)
        assert (p, r, f1) == (0.0, 0.0, 0.0)


class TestClassificationReport:
    """Accuracy and macro F1 of per-example ids, from their confusion counts."""

    def test_two_class_hand_oracle(self):
        # golds [0, 1], preds [0, 0]:
        #   class 0: tp=1 fp=1 fn=0 -> P=0.5 R=1 F1=2/3
        #   class 1: tp=0 fp=0 fn=1 -> all zero
        counts = confusion([0, 1], [0, 0], n_classes=2)
        assert counts.tolist() == [[1, 0], [1, 0]]
        accuracy, macro_f1 = scores(counts)
        assert accuracy == 0.5
        assert macro_f1 == pytest.approx((2 / 3) / 2)

    def test_zero_support_class_drags_macro(self):
        # class 2 never appears but still divides the macro average
        accuracy, macro_f1 = class_scores([0, 1], [0, 1], n_classes=3)
        assert accuracy == 1.0
        assert macro_f1 == pytest.approx(2 / 3)

    def test_perfect(self):
        assert class_scores([0, 1, 0], [0, 1, 0], n_classes=2) == (1.0, 1.0)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            confusion([0, 1], [0], n_classes=2)
        with pytest.raises(EmptyEval):
            class_scores([], [], n_classes=2)

    def test_counts_add_up_over_batches(self):
        whole = confusion([0, 1, 2, 2], [0, 2, 2, 1], n_classes=3)
        parts = confusion([0, 1], [0, 2], n_classes=3) + confusion([2, 2], [2, 1], n_classes=3)
        assert np.array_equal(whole, parts)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=60))
    def test_bounds_and_accuracy_identity(self, pairs):
        golds = [g for g, _ in pairs]
        preds = [p for _, p in pairs]
        counts = confusion(golds, preds, n_classes=4)
        assert counts.sum() == len(pairs)
        accuracy, macro_f1 = scores(counts)
        assert 0.0 <= macro_f1 <= 1.0
        assert accuracy == sum(g == p for g, p in pairs) / len(pairs)


class TestTaggingReport:
    """Token scores count the tags at mask > 0 of padded [b, t] id arrays,
    as evaluation does."""

    @staticmethod
    def tag_counts(gold_seqs, pred_seqs, n_classes):
        gold, mask = padded(gold_seqs, fill=0)
        pred, _ = padded(pred_seqs, fill=1)
        return confusion(gold[mask > 0], pred[mask > 0], n_classes)

    def test_flattens_sequences(self):
        counts = self.tag_counts([[0, 1], [1]], [[0, 1], [0]], n_classes=2)
        assert counts.sum() == 3
        assert scores(counts)[0] == pytest.approx(2 / 3)

    def test_matches_flat_classification(self):
        gold = [[0, 1, 1], [1, 0]]
        pred = [[0, 1, 0], [1, 0]]
        flat = class_scores([0, 1, 1, 1, 0], [0, 1, 0, 1, 0], n_classes=2)
        assert scores(self.tag_counts(gold, pred, n_classes=2)) == flat

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            confusion(np.zeros((1, 2), np.int64), np.zeros((2, 2), np.int64), n_classes=2)
        with pytest.raises(LengthMismatch):
            confusion(np.zeros((1, 2), np.int64), np.zeros((1, 1), np.int64), n_classes=2)
        with pytest.raises(EmptyEval):
            scores(self.tag_counts([[], []], [[], []], n_classes=2))


class TestFrameAccuracy:
    """Frame hits: examples whose doc label and every unmasked tag are right."""

    def test_all_or_nothing_per_example(self):
        tag_gold, mask = padded([[1, 0], [0], [0, 0]], fill=0)
        tag_pred, _ = padded([[1, 0], [1], [0, 0]], fill=1)
        # example 0 fully right; 1 has a tag error; 2 has a label error; the
        # padding of example 1 differs but is masked
        assert frame_hits(np.array([0, 1, 2]), np.array([0, 1, 0]),
                          tag_gold, tag_pred, mask) == 1

    def test_empty_tag_sequence_can_still_hit(self):
        # tags that differ under a zero mask, and no tag positions at all
        mask = np.zeros((1, 2), dtype=np.float32)
        assert frame_hits(np.array([0]), np.array([0]), np.array([[0, 1]]),
                          np.array([[1, 0]]), mask) == 1
        empty = np.zeros((1, 0), dtype=np.int64)
        assert frame_hits(np.array([0]), np.array([0]), empty, empty, empty) == 1

    def test_errors(self):
        ids, mask = padded([[0]], fill=0)
        with pytest.raises(LengthMismatch):
            frame_hits(np.array([0]), np.array([0, 1]), ids, ids, mask)
        with pytest.raises(LengthMismatch):
            frame_hits(np.array([0, 1]), np.array([0, 1]), ids, ids, mask)
        with pytest.raises(LengthMismatch):
            frame_hits(np.array([0]), np.array([0]), ids, np.zeros((1, 2), np.int64), mask)


@st.composite
def labelled_batches(draw):
    """n classes (1-40) and a few batches of doc ids and tag sequences, gold
    and predicted, each tag block under a padding mask."""
    n = draw(st.one_of(st.integers(1, 40), st.integers(8, 40)))
    ids = st.integers(0, n - 1)
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 6))
        lengths = draw(st.lists(st.integers(0, 7), min_size=size, max_size=size))
        seqs = [[draw(st.lists(ids, min_size=k, max_size=k)) for k in lengths]
                for _ in range(2)]
        docs = [draw(st.lists(ids, min_size=size, max_size=size)) for _ in range(2)]
        batches.append((docs, seqs))
    return n, batches


class TestAgainstListReports:
    """Scores from summed counts equal the list-based reports bit for bit."""

    @given(labelled_batches(), st.integers(0, 39))
    def test_scores_equal_the_list_reports(self, drawn, fill):
        n, batches = drawn
        doc_counts = tag_counts = hits = 0
        lists = {"dg": [], "dp": [], "tg": [], "tp": []}
        for (dg, dp), (tg, tp) in batches:
            lists["dg"] += dg
            lists["dp"] += dp
            lists["tg"] += tg
            lists["tp"] += tp
            gold_ids, mask = padded(tg, fill % n)
            pred_ids, _ = padded(tp, (fill + 1) % n)
            doc_counts = doc_counts + confusion(np.array(dg), np.array(dp), n)
            tag_counts = tag_counts + confusion(gold_ids[mask > 0], pred_ids[mask > 0], n)
            hits += frame_hits(np.array(dg), np.array(dp), gold_ids, pred_ids, mask)
        assert scores(doc_counts) == classification_report(lists["dg"], lists["dp"], n)
        frame = hits / len(lists["dg"])
        assert frame == frame_accuracy(lists["dg"], lists["dp"], lists["tg"], lists["tp"])
        if any(lists["tg"]):
            assert scores(tag_counts) == tagging_report(lists["tg"], lists["tp"], n)
        else:
            with pytest.raises(EmptyEval):
                scores(tag_counts)
