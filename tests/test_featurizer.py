"""Tokenization, spans, capitalization, char ids and gazetteer alignment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpora
from textforge.errors import OverlappingEntries
from textforge.featurizer import (CAP_ALL_CAPS, CAP_ALL_LOWER, CAP_INIT_CAP,
                                  CAP_OTHER, GAZ_NONE, Featurizer,
                                  FeaturizerSettings, GazetteerEntry,
                                  capitalization, char_ids, featurize,
                                  tokenize)
from textforge.pipeline import instantiate_task
from textforge.registry import parse_task_config
from textforge.vocab import Vocabulary


def spans(text, lowercase=True):
    return [(t.text, t.start, t.end) for t in tokenize(text, lowercase)]


class TestTokenize:
    def test_words_and_trailing_punct(self):
        assert spans("Set an alarm.") == [
            ("set", 0, 3), ("an", 4, 6), ("alarm", 7, 12), (".", 12, 13)]

    def test_whitespace_runs_collapse(self):
        assert spans("  a  ") == [("a", 2, 3)]

    def test_every_ascii_punct_is_its_own_token(self):
        assert [t[0] for t in spans("don't-stop!")] == [
            "don", "'", "t", "-", "stop", "!"]

    def test_offsets_are_utf8_bytes(self):
        # 'é' and 'ö' are two bytes each
        assert spans("héllo wörld") == [("héllo", 0, 6), ("wörld", 7, 13)]

    def test_spans_cover_the_original_casing(self):
        text = "Call Mom"
        got = tokenize(text)
        assert [t.text for t in got] == ["call", "mom"]
        raw = text.encode("utf-8")
        assert [raw[t.start:t.end].decode() for t in got] == ["Call", "Mom"]

    def test_lowercase_off_keeps_case(self):
        assert [t.text for t in tokenize("Call Mom", lowercase=False)] == ["Call", "Mom"]

    def test_empty_and_blank(self):
        assert tokenize("") == []
        assert tokenize(" \t\n ") == []


class TestCapitalization:
    @pytest.mark.parametrize("token,expected", [
        ("go", CAP_ALL_LOWER),
        ("Paris", CAP_INIT_CAP),
        ("USA", CAP_ALL_CAPS),
        ("iPhone", CAP_OTHER),
        ("x9y", CAP_ALL_LOWER),
    ])
    def test_classes(self, token, expected):
        assert capitalization(token) == expected

    def test_labels_computed_before_lowercasing(self):
        ex = featurize("Paris NOW", settings=FeaturizerSettings(lowercase=True))
        assert ex.token_texts() == ["paris", "now"]
        assert ex.cap_labels == [CAP_INIT_CAP, CAP_ALL_CAPS]


class TestCharIds:
    def setup_method(self):
        self.alphabet = Vocabulary(["a", "b", "c"])

    def test_pad_and_lookup(self):
        assert char_ids("ab", self.alphabet, 4) == [2, 3, 0, 0]

    def test_truncation(self):
        assert char_ids("abcabc", self.alphabet, 3) == [2, 3, 4]

    def test_unknown_char(self):
        assert char_ids("az", self.alphabet, 2) == [2, Vocabulary.UNK_ID]


class TestGazetteer:
    def test_byte_overlap_assigns_kind(self):
        text = "fly to paris now"
        entries = (GazetteerEntry(7, 12, "city"),)
        ex = featurize(text, entries)
        assert ex.gaz_labels == [GAZ_NONE, GAZ_NONE, "city", GAZ_NONE]

    def test_partial_overlap_counts(self):
        # entry covers only the first byte of the token
        ex = featurize("go paris", (GazetteerEntry(3, 4, "city"),))
        assert ex.gaz_labels == [GAZ_NONE, "city"]

    def test_token_straddling_two_entries_takes_the_earlier(self):
        ex = featurize("abcdef", (GazetteerEntry(0, 3, "x"), GazetteerEntry(3, 6, "y")))
        assert ex.gaz_labels == ["x"]

    def test_overlapping_entries_rejected(self):
        with pytest.raises(OverlappingEntries):
            featurize("abcdef", (GazetteerEntry(0, 4, "x"), GazetteerEntry(2, 6, "y")))

    def test_unsorted_entries_rejected(self):
        with pytest.raises(OverlappingEntries):
            featurize("ab cd", (GazetteerEntry(3, 5, "y"), GazetteerEntry(0, 2, "x")))


class TestFeaturizerObject:
    def test_char_ids_need_an_alphabet(self):
        ex = Featurizer(FeaturizerSettings()).featurize("hi")
        assert ex.char_ids is None

    def test_with_alphabet_fills_char_ids(self):
        fz = Featurizer(FeaturizerSettings(max_chars=3))
        fz2 = fz.with_alphabet(Vocabulary(["h", "i"]))
        ex = fz2.featurize("hi")
        assert ex.char_ids == [[2, 3, 0]]
        # the original featurizer is untouched
        assert fz.settings.alphabet is None

    def test_max_chars_respected(self):
        fz = Featurizer(FeaturizerSettings(max_chars=2)).with_alphabet(Vocabulary(["a"]))
        ex = fz.featurize("aaaa aa a")
        assert all(len(row) == 2 for row in ex.char_ids)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_featurize_is_deterministic(text):
    a = featurize(text)
    b = featurize(text)
    assert a == b


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_spans_slice_back_to_token_text(text):
    raw = text.encode("utf-8")
    for tok in tokenize(text):
        assert 0 <= tok.start < tok.end <= len(raw)
        piece = raw[tok.start:tok.end].decode("utf-8")
        assert piece.lower() == tok.text
        assert tok.text.strip() == tok.text and tok.text


def test_pipeline_features_match_featurize(tmp_path):
    # datasets are featurized before the char vocab exists and get their
    # char ids afterwards; the result must equal featurizing with it
    cfg = corpora.word_config(str(tmp_path), n_train=30, n_eval=10, with_test=True,
                              embedding={"token": {"word_dim": 8, "char_dim": 4,
                                                   "gaz_dim": 3}})
    data = cfg["task"]["word_tagging"]["data"]["tsv"]
    for split in ("train_path", "eval_path", "test_path"):
        rows = []
        with open(data[split], encoding="utf-8") as handle:
            for line in handle:
                tags, text = line.rstrip("\n").split("\t")
                first = text.split(" ")[0]
                # a capitalized first token, marked as a gazetteer entry
                rows.append("%s\t%s\t0:%d:city\n" % (tags, text.capitalize(), len(first)))
        with open(data[split], "w", encoding="utf-8") as handle:
            handle.writelines(rows)
    pipe = instantiate_task(parse_task_config(corpora.as_text(cfg)))
    examples = [ex for sources in pipe.datasets.values() for ds in sources
                for ex in ds.examples]
    assert len(examples) == 30 + 10 + 10
    assert any(ex.feats.gaz_labels[0] == "city" for ex in examples)
    for ex in examples:
        assert ex.feats.char_ids is not None
        assert ex.feats == pipe.featurizer.featurize(ex.raw_text, ex.entries)
