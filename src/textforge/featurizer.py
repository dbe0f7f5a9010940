"""Text featurization shared by the training pipeline and the inference runtime.

Both paths must produce byte-identical features for the same input, so all of
the logic lives here and is driven by a single settings object. Tokenization
splits on Unicode whitespace and additionally splits each ASCII punctuation
character into its own token. Spans are byte offsets into the original text,
taken before any lowercasing.
"""

import string
from dataclasses import dataclass, field
from typing import Optional

from .errors import OverlappingEntries
from .vocab import Vocabulary

_ASCII_PUNCT = frozenset(string.punctuation)

CAP_ALL_LOWER = "all_lower"
CAP_INIT_CAP = "init_cap"
CAP_ALL_CAPS = "all_caps"
CAP_OTHER = "other"

# Fixed enumeration: entries 0/1 are the usual specials so ids line up with
# every other vocabulary.
CAP_CLASSES = (CAP_ALL_LOWER, CAP_INIT_CAP, CAP_ALL_CAPS, CAP_OTHER)

GAZ_NONE = "<none>"


@dataclass(frozen=True)
class TokenSpan:
    text: str
    start: int  # byte offset into the original utf-8 text
    end: int


@dataclass(frozen=True)
class GazetteerEntry:
    start: int  # byte offsets, end exclusive
    end: int
    kind: str


@dataclass
class FeaturizerSettings:
    lowercase: bool = True
    max_chars: int = 20
    alphabet: Optional[Vocabulary] = None  # set once the char vocab exists


@dataclass
class FeaturizedExample:
    raw_text: str
    tokens: list  # list[TokenSpan]
    char_ids: Optional[list]  # per-token fixed-length id rows, None w/o alphabet
    gaz_labels: list  # per-token gazetteer kind or GAZ_NONE
    cap_labels: list  # per-token capitalization class name

    def token_texts(self):
        return [t.text for t in self.tokens]


def tokenize(text: str, lowercase: bool = True):
    """Split text into TokenSpans.

    Whitespace separates tokens and is dropped; each ASCII punctuation char
    becomes its own token; runs of separators collapse. Span offsets index
    the original text in utf-8 bytes and always cover the pre-lowercase form.
    """
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


def capitalization(token_text: str) -> str:
    """Classify the shape of a token before lowercasing."""
    if token_text.isupper():
        return CAP_ALL_CAPS
    if token_text[:1].isupper() and token_text[1:] == token_text[1:].lower():
        return CAP_INIT_CAP
    if token_text.islower():
        return CAP_ALL_LOWER
    return CAP_OTHER


def char_ids(token_text: str, alphabet: Vocabulary, max_chars: int):
    """Map a token's characters to ids, truncated or padded to max_chars."""
    ids = [alphabet.lookup(ch) for ch in token_text[:max_chars]]
    ids.extend([Vocabulary.PAD_ID] * (max_chars - len(ids)))
    return ids


def char_rows(tokens, settings: FeaturizerSettings):
    """The char id row of every TokenSpan under the settings' alphabet."""
    return [char_ids(t.text, settings.alphabet, settings.max_chars) for t in tokens]


def align_gazetteer(tokens, entries):
    """Assign each token the kind of the entry it overlaps by >= 1 byte.

    Entries must be sorted by start and non-overlapping. A token straddling
    two entries takes the earlier one.
    """
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


def featurize(text: str, entries=(), settings: FeaturizerSettings = None) -> FeaturizedExample:
    """Run the full per-example feature pipeline.

    Capitalization is computed on the original token text, then the stored
    token text reflects the lowercase flag. Char ids are only filled in once
    the settings carry an alphabet.
    """
    settings = settings or FeaturizerSettings()
    raw_spans = tokenize(text, lowercase=False)
    cap_labels = [capitalization(t.text) for t in raw_spans]
    if settings.lowercase:
        tokens = [TokenSpan(t.text.lower(), t.start, t.end) for t in raw_spans]
    else:
        tokens = raw_spans
    gaz_labels = align_gazetteer(tokens, tuple(entries))
    rows = char_rows(tokens, settings) if settings.alphabet is not None else None
    return FeaturizedExample(text, tokens, rows, gaz_labels, cap_labels)


class Featurizer:
    """Settings holder bound at pipeline construction."""

    def __init__(self, settings: FeaturizerSettings = None):
        self.settings = settings or FeaturizerSettings()

    def with_alphabet(self, alphabet: Vocabulary) -> "Featurizer":
        return Featurizer(FeaturizerSettings(
            lowercase=self.settings.lowercase,
            max_chars=self.settings.max_chars,
            alphabet=alphabet,
        ))

    def featurize(self, text: str, entries=()) -> FeaturizedExample:
        return featurize(text, entries, self.settings)
