"""Text featurization shared by the training pipeline and the inference runtime.

Both paths must produce byte-identical features for the same input, so all of
the logic lives here and is driven by a single settings object. Tokenization
splits on Unicode whitespace and additionally splits each ASCII punctuation
character into its own token. Spans are byte offsets into the original text,
taken before any lowercasing.

A text is tokenized in one pass of one precompiled regex, ``[punct]|[^\\s
punct]+`` over ``string.punctuation``: on str patterns ``\\s`` matches exactly
the characters ``str.isspace`` accepts. An ASCII text's byte offsets are its
match offsets; other text adds the UTF-8 length of each gap and each token.
Capitalization is read from the raw match, and each TokenSpan is built once,
already lowercased when the settings ask for it.
"""

import re
import string
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NotUtf8, OverlappingEntries, TextTooLong
from .vocab import Vocabulary

# one ASCII punctuation char, or a run of chars that are neither that nor space
_TOKEN = re.compile("[{0}]|[^\\s{0}]+".format(re.escape(string.punctuation)))

CAP_ALL_LOWER = "all_lower"
CAP_INIT_CAP = "init_cap"
CAP_ALL_CAPS = "all_caps"
CAP_OTHER = "other"

# Fixed enumeration: entries 0/1 are the usual specials so ids line up with
# every other vocabulary.
CAP_CLASSES = (CAP_ALL_LOWER, CAP_INIT_CAP, CAP_ALL_CAPS, CAP_OTHER)

GAZ_NONE = "<none>"

# a text holds no more tokens than characters, so this bounds the tokens too
MAX_TEXT_CHARS = 1 << 16


class TokenSpan(NamedTuple):
    """A token and its utf-8 byte span. Being a tuple, it also equals the
    plain tuple (text, start, end)."""
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


@dataclass
class FeaturizedExample:
    raw_text: str
    tokens: list  # list[TokenSpan]
    gaz_labels: list  # per-token gazetteer kind or GAZ_NONE
    cap_labels: list  # per-token capitalization class name

    def token_texts(self):
        return [t.text for t in self.tokens]


def capitalization(token_text: str) -> str:
    """Classify the shape of a token before lowercasing."""
    if token_text.isupper():
        return CAP_ALL_CAPS
    if token_text[:1].isupper() and token_text[1:] == token_text[1:].lower():
        return CAP_INIT_CAP
    if token_text.islower():
        return CAP_ALL_LOWER
    return CAP_OTHER


def char_ids(token_text: str, vocab: Vocabulary, max_chars: int):
    """Map a token's characters to char vocab ids, truncated or padded to max_chars."""
    get = vocab.index.get
    ids = [get(ch, Vocabulary.UNK_ID) for ch in token_text[:max_chars]]
    ids.extend([Vocabulary.PAD_ID] * (max_chars - len(ids)))
    return ids


def align_gazetteer(tokens, entries):
    """Assign each token the kind of the entry it overlaps by >= 1 byte.

    Entries must be sorted by start and non-overlapping. A token straddling
    two entries takes the earlier one.
    """
    if not entries:
        return [GAZ_NONE] * len(tokens)
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


def featurize(text: str, entries=(), *, lowercase=True) -> FeaturizedExample:
    """Run the full per-example feature pipeline.

    Capitalization is computed on the original token text, then the stored
    token text reflects the lowercase flag. A text UTF-8 cannot encode (one
    holding a lone surrogate) raises NotUtf8, and one longer than
    MAX_TEXT_CHARS characters raises TextTooLong.
    """
    if len(text) > MAX_TEXT_CHARS:
        raise TextTooLong("text of %d characters is longer than the %d allowed"
                          % (len(text), MAX_TEXT_CHARS))
    tokens, cap_labels = [], []
    utf8 = not text.isascii()
    if utf8:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise NotUtf8("text is not UTF-8 encodable: %s" % exc.reason)
    char_pos = byte_pos = 0
    for match in _TOKEN.finditer(text):
        raw = match.group()
        start, end = match.span()
        if utf8:
            start = byte_pos + len(text[char_pos:start].encode("utf-8"))
            char_pos, byte_pos = end, start + len(raw.encode("utf-8"))
            end = byte_pos
        cap_labels.append(capitalization(raw))
        tokens.append(TokenSpan(raw.lower() if lowercase else raw, start, end))
    gaz_labels = align_gazetteer(tokens, tuple(entries))
    return FeaturizedExample(text, tokens, gaz_labels, cap_labels)


class Featurizer:
    """Settings holder bound at pipeline construction."""

    def __init__(self, settings: FeaturizerSettings = None):
        self.settings = settings or FeaturizerSettings()

    def featurize(self, text: str, entries=()) -> FeaturizedExample:
        return featurize(text, entries, lowercase=self.settings.lowercase)
