"""Tokenization, spans, capitalization, char ids and gazetteer alignment."""

import string
import sys
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpora
from textforge import data_handler, pipeline
from textforge import graph as graph_module
from textforge.data_handler import single_example_batch
from textforge.errors import OverlappingEntries, TextTooLong
from textforge.exporter import export_pipeline
from textforge.featurizer import (CAP_ALL_CAPS, CAP_ALL_LOWER, CAP_INIT_CAP,
                                  CAP_OTHER, GAZ_NONE, MAX_TEXT_CHARS, FeaturizedExample,
                                  FeaturizerSettings, GazetteerEntry, TokenSpan,
                                  capitalization, char_ids, featurize)
from textforge.pipeline import instantiate_task
from textforge.registry import parse_task_config
from textforge.vocab import Vocabulary


def tokens(text, lowercase=True):
    return featurize(text, (), lowercase=lowercase).tokens


def spans(text, lowercase=True):
    return [(t.text, t.start, t.end) for t in tokens(text, lowercase)]


# --- the per-character tokenizer, featurize and gazetteer alignment before
# the one-pass regex: the oracle for featurize ---

_ASCII_PUNCT = frozenset(string.punctuation)


def ref_tokenize(text: str, lowercase: bool = True):
    spans = []
    byte_pos = 0
    tok_chars = []
    tok_start = 0

    def flush(end_byte):
        if tok_chars:
            raw = "".join(tok_chars)
            spans.append(TokenSpan(raw.lower() if lowercase else raw, tok_start, end_byte))
            tok_chars.clear()

    for ch in text:
        ch_len = len(ch.encode("utf-8"))
        if ch.isspace():
            flush(byte_pos)
        elif ch in _ASCII_PUNCT:
            flush(byte_pos)
            spans.append(TokenSpan(ch, byte_pos, byte_pos + ch_len))
        else:
            if not tok_chars:
                tok_start = byte_pos
            tok_chars.append(ch)
        byte_pos += ch_len
    flush(byte_pos)
    return spans


def ref_featurize(text: str, entries=(), settings: FeaturizerSettings = None) -> FeaturizedExample:
    settings = settings or FeaturizerSettings()
    raw_spans = ref_tokenize(text, lowercase=False)
    cap_labels = [capitalization(t.text) for t in raw_spans]
    if settings.lowercase:
        tokens = [TokenSpan(t.text.lower(), t.start, t.end) for t in raw_spans]
    else:
        tokens = raw_spans
    gaz_labels = ref_align_gazetteer(tokens, tuple(entries))
    return FeaturizedExample(text, tokens, gaz_labels, cap_labels)


def ref_align_gazetteer(tokens, entries):
    prev_end = None
    for i, entry in enumerate(entries):
        if entry.start >= entry.end:
            raise OverlappingEntries("entry %d has empty span (%d, %d)" % (i, entry.start, entry.end))
        if prev_end is not None and entry.start < prev_end:
            raise OverlappingEntries(
                "entries must be sorted and disjoint; entry %d starts at %d before previous end %d"
                % (i, entry.start, prev_end))
        prev_end = entry.end

    labels = []
    for tok in tokens:
        label = GAZ_NONE
        for entry in entries:
            if tok.start < entry.end and entry.start < tok.end:
                label = entry.kind
                break
        labels.append(label)
    return labels


# every code point but the surrogates, which utf-8 cannot encode
ALL_CHARS = "".join(map(chr, chain(range(0xD800), range(0xE000, sys.maxunicode + 1))))
WHITESPACE = "".join(ch for ch in ALL_CHARS if ch.isspace())


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
        got = tokens(text)
        assert [t.text for t in got] == ["call", "mom"]
        raw = text.encode("utf-8")
        assert [raw[t.start:t.end].decode() for t in got] == ["Call", "Mom"]

    def test_lowercase_off_keeps_case(self):
        assert [t.text for t in tokens("Call Mom", lowercase=False)] == ["Call", "Mom"]

    def test_empty_and_blank(self):
        assert tokens("") == []
        assert tokens(" \t\n ") == []

    def test_non_ascii_separators_count_their_utf8_bytes(self):
        # U+3000 is three bytes, U+00A0 and U+0085 two each; all are separators
        assert spans("a\u3000\u00e9\u00a0\u0085b .") == [
            ("a", 0, 1), ("\u00e9", 4, 6), ("b", 10, 11), (".", 12, 13)]

    def test_lowercasing_may_change_length_but_not_the_span(self):
        # 'İ' lowers to two chars; the span still covers its two utf-8 bytes
        assert spans("\u0130x") == [("i\u0307x", 0, 3)]

    def test_separators_are_exactly_the_isspace_chars(self):
        # every non-space char lands in a token, in order, and no space char
        # does; the chars are tokenized in texts of the longest length allowed
        got = chain.from_iterable(tokens(ALL_CHARS[i:i + MAX_TEXT_CHARS], lowercase=False)
                                  for i in range(0, len(ALL_CHARS), MAX_TEXT_CHARS))
        assert "".join(t.text for t in got) == "".join(
            ch for ch in ALL_CHARS if not ch.isspace())

    def test_a_text_past_the_bound_is_refused(self):
        assert len(tokens("a " * (MAX_TEXT_CHARS // 2))) == MAX_TEXT_CHARS // 2
        with pytest.raises(TextTooLong, match="text of 65537 characters"):
            featurize("a" * (MAX_TEXT_CHARS + 1))
        with pytest.raises(TextTooLong):  # the bound counts characters, not bytes
            featurize("\u00e9" * (MAX_TEXT_CHARS + 1))


class TestTokenSpan:
    def test_compares_and_hashes_by_value(self):
        a, b = TokenSpan("go", 0, 2), TokenSpan("go", 0, 2)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != TokenSpan("go", 0, 3) and a != TokenSpan("Go", 0, 2)
        assert (a.text, a.start, a.end) == ("go", 0, 2)

    def test_equals_the_plain_tuple(self):
        assert TokenSpan("go", 0, 2) == ("go", 0, 2)
        assert hash(TokenSpan("go", 0, 2)) == hash(("go", 0, 2))

    def test_is_immutable(self):
        span = TokenSpan("go", 0, 2)
        with pytest.raises(AttributeError):
            span.text = "x"


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
        ex = featurize("Paris NOW", lowercase=True)
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
    for tok in tokens(text):
        assert 0 <= tok.start < tok.end <= len(raw)
        piece = raw[tok.start:tok.end].decode("utf-8")
        assert piece.lower() == tok.text
        assert tok.text.strip() == tok.text and tok.text


# text weighted toward what the tokenizer must tell apart: every separator,
# ASCII punctuation, non-ASCII cased letters (some lower to another length),
# astral chars and the rest of Unicode that UTF-8 can encode (no lone
# surrogate: every text input is decoded as strict UTF-8, and this strategy's
# own byte count could not encode one)
_CHARS = st.one_of(
    st.sampled_from(WHITESPACE),
    st.sampled_from(string.punctuation),
    st.sampled_from("\u00c0\u00e9\u00df\ufb01\u0130\u0131\u01c5\u03a3\u03c2\u0416\u1e9e"),
    st.characters(min_codepoint=0x80, categories=("Lu", "Ll", "Lt")),
    st.characters(min_codepoint=0x10000),
    st.characters(codec="utf-8"),
    st.sampled_from(string.ascii_letters + string.digits),
)


@st.composite
def text_and_entries(draw):
    text = "".join(draw(st.lists(_CHARS, max_size=40)))
    n_bytes = len(text.encode("utf-8"))
    # sorted, strictly increasing bounds paired up give valid disjoint entries
    bounds = sorted(draw(st.sets(st.integers(0, n_bytes + 2), max_size=8)))
    kinds = st.sampled_from(["city", "name", GAZ_NONE])
    entries = [GazetteerEntry(start, end, draw(kinds))
               for start, end in zip(bounds[::2], bounds[1::2])]
    return text, entries


@settings(max_examples=400, deadline=None)
@given(text_and_entries(), st.booleans())
def test_featurize_matches_the_per_character_oracle(case, lowercase):
    text, entries = case
    opts = FeaturizerSettings(lowercase=lowercase)
    got = featurize(text, entries, lowercase=lowercase)
    want = ref_featurize(text, entries, opts)
    assert got.tokens == want.tokens
    assert got.cap_labels == want.cap_labels
    assert got.gaz_labels == want.gaz_labels
    assert got == want
    assert tokens(text, lowercase) == ref_tokenize(text, lowercase)


def test_pipeline_features_match_featurize(tmp_path):
    # datasets are featurized while they load; the result must equal
    # featurizing each text again with the pipeline's featurizer
    cfg = corpora.word_config(str(tmp_path), n_train=30, n_eval=10,
                              embedding={"token": {"word_dim": 8, "char_dim": 4,
                                                   "gaz_dim": 3}})
    data = cfg["task"]["word_tagging"]["data"]["tsv"]
    for split in ("train_path", "eval_path"):
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
    assert len(examples) == 30 + 10
    assert any(ex.feats.gaz_labels[0] == "city" for ex in examples)
    for ex in examples:
        assert ex.feats == pipe.featurizer.featurize(ex.raw_text, ex.entries)


def test_char_ids_agree_in_training_eager_and_graph(tmp_path, monkeypatch):
    # training batches, eager predict and the graph's LookupChars look char
    # ids up in one function; their rows must be equal, bit for bit
    cfg = corpora.doc_config(str(tmp_path), n_train=12, n_eval=4, batch_size=4,
                             embedding={"token": {"word_dim": 8, "char_dim": 4}})
    task = cfg["task"]["doc_classification"]
    task["featurizer"] = {"basic": {"max_chars": 5}}
    # tokens longer than max_chars, and chars the training split never shows
    probes = ["Extraordinarily lengthy words", "na\u00efve Z\u00fcrich \u2603 \u1e9e", "x"]
    with open(task["data"]["tsv"]["eval_path"], "a", encoding="utf-8") as handle:
        handle.writelines("%s\t%s\n" % (corpora.DOC_LABELS[0], text) for text in probes)
    pipe = instantiate_task(parse_task_config(corpora.as_text(cfg)))
    # every training batch is a row slice of one vectorized Batch per source
    sources = []
    make_batches = pipeline.make_batches

    def recording(full, batch_size, shuffle_seed=None):
        sources.append(full)
        return make_batches(full, batch_size, shuffle_seed)
    monkeypatch.setattr(pipeline, "make_batches", recording)
    pipe.train_batches(0)
    pipe.evaluate()
    graph = export_pipeline(pipe)
    (op,) = [op for op in graph.ops if op.opcode == "LookupChars"]
    vocab = graph.vocabs[op.attrs["vocab"]]

    def graph_rows(text):
        tokens = graph_module.prepare_feed(graph, text)["tokens"]
        return graph_module._lookup_chars(vocab, graph.attrs["max_chars"], tokens)

    def eager_rows(text):
        feats = pipe.featurizer.featurize(text)
        return single_example_batch(feats, pipe.vocabs, pipe.max_chars).char_ids[0]

    checked = 0
    for split, full in zip(("train", "eval"), sources):
        for i, ex in enumerate(pipe.datasets[split][0].examples):
            row = full.char_ids[i, :full.lengths[i]]
            for other in (eager_rows(ex.raw_text), graph_rows(ex.raw_text)):
                assert (row.dtype, row.shape) == (other.dtype, other.shape), ex.raw_text
                assert row.tobytes() == other.tobytes(), ex.raw_text
            checked += 1
    assert checked == 12 + 4 + len(probes)
    assert (sources[1].char_ids == Vocabulary.UNK_ID).any()
    assert eager_rows("").shape == graph_rows("").shape == (0, 5)


@pytest.mark.parametrize("char_dim", [0, 4], ids=["word_only", "with_chars"])
def test_char_ids_are_looked_up_only_for_a_char_embedding(tmp_path, monkeypatch, char_dim):
    # a model without a char table gets an empty char-id block, in training
    # batches and in eager predict, and no char lookup runs
    cfg = corpora.doc_config(str(tmp_path), n_train=12, n_eval=4, batch_size=4, epochs=1,
                             embedding={"token": {"word_dim": 8, "char_dim": char_dim}})
    pipe = instantiate_task(parse_task_config(corpora.as_text(cfg)))
    calls = []
    lookup = data_handler.char_ids
    monkeypatch.setattr(data_handler, "char_ids",
                        lambda tok, vocab, n: calls.append(tok) or lookup(tok, vocab, n))
    batches = pipe.train_batches(0)
    pipe.evaluate()
    pipe.predict(pipe.featurizer.featurize("set an alarm"))
    width = pipe.max_chars if char_dim else 0
    assert {batch.char_ids.shape[2] for batch in batches} == {width}
    assert (len(calls) > 0) == bool(char_dim)
