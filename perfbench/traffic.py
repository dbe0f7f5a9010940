"""Seeded traffic: training TSVs and serving requests for one workload.

Everything here is a pure function of (spec, seed). The program under test
only ever sees the files and strings produced here, never the generator.

The lexicon is a seeded set of pronounceable word types. Filler tokens follow
a Zipf law over it, each document label is announced by its own keyword, and
slot words (tagged ``B-<kind>``) come from small per-kind sub-lexicons. A
separate pool of novel words never appears in training data, so serving
texts carry a controlled share of out-of-vocabulary tokens.
"""

from dataclasses import dataclass

import numpy as np

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "z", "br", "ch", "dr", "gl", "kr", "pl", "sh",
           "st", "th", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
_CODAS = ("", "", "", "n", "r", "s", "l", "m", "x", "nd", "st")

SLOT_KINDS = ("city", "date", "person", "item")
TAG_OUT = "O"


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of one workload's data; sizes are per file, lengths in tokens."""
    n_types: int            # word types in the lexicon, before novel words
    n_labels: int           # document labels, each keyed by one keyword
    slot_words: int         # words per slot kind (0: no slot tagging)
    slot_share: float       # chance a non-keyword token is a slot word
    novel_share: float      # chance a serving token is a never-trained word
    mixed_case: float       # chance a token is capitalized or upper-cased
    n_train: int
    n_eval: int
    train_len: tuple        # (min, max) tokens per training text
    serve_len: tuple        # (min, max) tokens per serving request
    n_requests: int         # distinct serving texts in the request pool
    zipf_s: float = 1.1


@dataclass
class Traffic:
    train_rows: list        # (doc_label or None, tags or None, tokens)
    eval_rows: list
    requests: list          # raw serving texts
    lexicon_size: int


def _make_words(rng, n, taken):
    words = []
    while len(words) < n:
        parts = [_ONSETS[rng.integers(len(_ONSETS))] + _VOWELS[rng.integers(len(_VOWELS))]
                 for _ in range(int(rng.integers(1, 4)))]
        word = "".join(parts) + _CODAS[rng.integers(len(_CODAS))]
        if len(word) >= 2 and word not in taken:
            taken.add(word)
            words.append(word)
    return words


class _Lexicon:
    def __init__(self, spec: TrafficSpec, rng):
        taken = set()
        self.keywords = _make_words(rng, spec.n_labels, taken)
        self.labels = ["label%d" % i for i in range(spec.n_labels)]
        self.slots = {kind: _make_words(rng, spec.slot_words, taken)
                      for kind in SLOT_KINDS} if spec.slot_words else {}
        self.fillers = _make_words(rng, spec.n_types, taken)
        self.novel = _make_words(rng, max(spec.n_types // 10, 1), taken)
        weights = 1.0 / np.arange(1, len(self.fillers) + 1) ** spec.zipf_s
        self.cdf = np.cumsum(weights / weights.sum())

    def filler(self, rng):
        i = int(np.searchsorted(self.cdf, rng.random(), side="right"))
        return self.fillers[min(i, len(self.fillers) - 1)]


def _cased(rng, word, share):
    if share and rng.random() < share:
        return word.upper() if rng.random() < 0.3 else word.capitalize()
    return word


def _row(rng, lex: _Lexicon, spec: TrafficSpec, length, novel_share):
    """One text: a keyword at a random position, fillers and slot words."""
    k = int(rng.integers(len(lex.keywords)))
    tokens, tags = [], []
    for _ in range(length - 1):
        if lex.slots and rng.random() < spec.slot_share:
            kind = SLOT_KINDS[int(rng.integers(len(SLOT_KINDS)))]
            words = lex.slots[kind]
            tokens.append(words[int(rng.integers(len(words)))])
            tags.append("B-" + kind)
        elif novel_share and rng.random() < novel_share:
            tokens.append(lex.novel[int(rng.integers(len(lex.novel)))])
            tags.append(TAG_OUT)
        else:
            tokens.append(lex.filler(rng))
            tags.append(TAG_OUT)
    at = int(rng.integers(length))
    tokens.insert(at, lex.keywords[k])
    tags.insert(at, TAG_OUT)
    tokens = [_cased(rng, t, spec.mixed_case) for t in tokens]
    return lex.labels[k], tags, tokens


def generate(spec: TrafficSpec, seed: int) -> Traffic:
    """Training rows, eval rows and the serving request pool for one seed."""
    root = np.random.SeedSequence(seed)
    lex_ss, train_ss, eval_ss, serve_ss = root.spawn(4)
    lex = _Lexicon(spec, np.random.default_rng(lex_ss))

    def rows(ss, n, span, novel):
        rng = np.random.default_rng(ss)
        return [_row(rng, lex, spec, int(rng.integers(span[0], span[1] + 1)), novel)
                for _ in range(n)]

    train = rows(train_ss, spec.n_train, spec.train_len, 0.0)
    eval_ = rows(eval_ss, spec.n_eval, spec.train_len, 0.0)
    serve = rows(serve_ss, spec.n_requests, spec.serve_len, spec.novel_share)
    requests = [" ".join(tokens) for _, _, tokens in serve]
    return Traffic(train, eval_, requests, len(lex.fillers))


def format_tsv(rows, kind: str) -> str:
    """TSV text in the layout the data handler reads for this task kind."""
    lines = []
    for label, tags, tokens in rows:
        text = " ".join(tokens)
        if kind == "doc":
            lines.append("%s\t%s" % (label, text))
        elif kind == "word":
            lines.append("%s\t%s" % (" ".join(tags), text))
        else:
            lines.append("%s %s\t%s" % (label, " ".join(tags), text))
    return "\n".join(lines) + "\n"


def request_stats(traffic: Traffic) -> dict:
    """Properties of the request pool that the serving cost depends on.

    OOV is judged against the token types of the training rows, lowercased
    the way the default featurizer sees them.
    """
    seen = {t.lower() for _, _, tokens in traffic.train_rows for t in tokens}
    n_tok = n_chars = n_oov = n_mixed = 0
    for text in traffic.requests:
        for tok in text.split():
            n_tok += 1
            n_chars += len(tok)
            n_oov += tok.lower() not in seen
            n_mixed += tok != tok.lower()
    return {
        "requests": len(traffic.requests),
        "tokens_per_request": n_tok / len(traffic.requests),
        "chars_per_token": n_chars / n_tok,
        "oov_share": n_oov / n_tok,
        "mixed_case_share": n_mixed / n_tok,
        "lexicon_types": traffic.lexicon_size,
    }
