"""Metric oracles worked out by hand, plus the fixed 0/0 -> 0 convention."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from textforge.errors import EmptyEval, LengthMismatch
from textforge.metrics import (classification_report, frame_accuracy,
                               precision_recall_f1, tagging_report)


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
    def test_two_class_hand_oracle(self):
        # golds [0, 1], preds [0, 0]:
        #   class 0: tp=1 fp=1 fn=0 -> P=0.5 R=1 F1=2/3
        #   class 1: tp=0 fp=0 fn=1 -> all zero
        rep = classification_report([0, 1], [0, 0], n_classes=2)
        assert rep.accuracy == 0.5
        assert rep.macro_f1 == pytest.approx((2 / 3) / 2)
        assert rep.per_class[0].precision == 0.5
        assert rep.per_class[0].recall == 1.0
        assert rep.per_class[0].f1 == pytest.approx(2 / 3)
        assert rep.per_class[1] .f1 == 0.0
        assert rep.per_class[0].support == 1
        assert rep.per_class[1].support == 1
        assert rep.n_examples == 2

    def test_zero_support_class_drags_macro(self):
        # class 2 never appears but still divides the macro average
        rep = classification_report([0, 1], [0, 1], n_classes=3)
        assert rep.accuracy == 1.0
        assert rep.macro_f1 == pytest.approx(2 / 3)
        assert rep.per_class[2].support == 0

    def test_perfect(self):
        rep = classification_report([0, 1, 0], [0, 1, 0], n_classes=2)
        assert rep.accuracy == 1.0
        assert rep.macro_f1 == 1.0

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            classification_report([0, 1], [0], n_classes=2)
        with pytest.raises(EmptyEval):
            classification_report([], [], n_classes=2)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=60))
    def test_bounds_and_accuracy_identity(self, pairs):
        golds = [g for g, _ in pairs]
        preds = [p for _, p in pairs]
        rep = classification_report(golds, preds, n_classes=4)
        assert 0.0 <= rep.macro_f1 <= 1.0
        assert rep.accuracy == sum(g == p for g, p in pairs) / len(pairs)
        for c, prf in rep.per_class.items():
            assert 0.0 <= prf.precision <= 1.0
            assert 0.0 <= prf.recall <= 1.0
            lo, hi = min(prf.precision, prf.recall), max(prf.precision, prf.recall)
            assert lo - 1e-12 <= prf.f1 <= hi + 1e-12
        assert sum(prf.support for prf in rep.per_class.values()) == len(pairs)


class TestTaggingReport:
    def test_flattens_sequences(self):
        rep = tagging_report([[0, 1], [1]], [[0, 1], [0]], n_classes=2)
        assert rep.n_tokens == 3
        assert rep.n_sequences == 2
        assert rep.token_accuracy == pytest.approx(2 / 3)

    def test_matches_flat_classification(self):
        gold = [[0, 1, 1], [1, 0]]
        pred = [[0, 1, 0], [1, 0]]
        rep = tagging_report(gold, pred, n_classes=2)
        flat = classification_report([0, 1, 1, 1, 0], [0, 1, 0, 1, 0], n_classes=2)
        assert rep.macro_f1 == flat.macro_f1
        assert rep.token_accuracy == flat.accuracy

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            tagging_report([[0]], [[0], [1]], n_classes=2)
        with pytest.raises(LengthMismatch):
            tagging_report([[0, 1]], [[0]], n_classes=2)
        with pytest.raises(EmptyEval):
            tagging_report([[], []], [[], []], n_classes=2)


class TestFrameAccuracy:
    def test_all_or_nothing_per_example(self):
        score = frame_accuracy(
            doc_gold=[0, 1, 2],
            doc_pred=[0, 1, 0],
            tag_gold=[[1, 0], [0], [0, 0]],
            tag_pred=[[1, 0], [1], [0, 0]],
        )
        # example 0 fully right; 1 has a tag error; 2 has a label error
        assert score == pytest.approx(1 / 3)

    def test_empty_tag_sequence_can_still_hit(self):
        assert frame_accuracy([0], [0], [[]], [[]]) == 1.0

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            frame_accuracy([0], [0, 1], [[0]], [[0]])
        with pytest.raises(LengthMismatch):
            frame_accuracy([0], [0], [[0, 1]], [[0]])
        with pytest.raises(EmptyEval):
            frame_accuracy([], [], [], [])
