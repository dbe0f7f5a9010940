"""Vocabulary with fixed special entries and deterministic ordering."""

from typing import Optional

from .errors import EmptyCorpus


class Vocabulary:
    """Maps strings to dense ids.

    Entry 0 is always the padding token and entry 1 the unknown token.
    Remaining entries are ordered by descending frequency with ties broken
    lexicographically, so the same corpus always yields the same table.
    """

    PAD = "<pad>"
    UNK = "<unk>"
    PAD_ID = 0
    UNK_ID = 1

    def __init__(self, entries):
        entries = list(entries)
        if entries[:2] != [self.PAD, self.UNK]:
            entries = [self.PAD, self.UNK] + entries
        self.entries = entries
        self.index = dict(zip(entries, range(len(entries))))

    @classmethod
    def from_table(cls, entries) -> Optional["Vocabulary"]:
        """The Vocabulary over a stored table, or None unless entries is the
        table a Vocabulary stores: a list of unique strings starting with
        PAD, UNK. Graph and checkpoint readers check every table they load
        here; the index that the uniqueness check builds is the one the
        Vocabulary keeps, so a load hashes each table once."""
        if not (isinstance(entries, list) and entries[:2] == [cls.PAD, cls.UNK]
                and all_str(entries)):
            return None
        vocab = cls.__new__(cls)
        vocab.entries = entries
        vocab.index = dict(zip(entries, range(len(entries))))
        return vocab if len(vocab.index) == len(entries) else None

    @classmethod
    def build(cls, counts: dict, min_freq: int = 1) -> "Vocabulary":
        """Build from a token -> frequency mapping, dropping rare tokens."""
        if not counts:
            raise EmptyCorpus("no tokens to build a vocabulary from")
        kept = [(tok, n) for tok, n in counts.items() if n >= min_freq]
        kept.sort(key=lambda item: (-item[1], item[0]))
        return cls([tok for tok, _ in kept])

    def lookup(self, token: str) -> int:
        return self.index.get(token, self.UNK_ID)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.entries == other.entries

    def __repr__(self):
        return "Vocabulary(%d entries)" % len(self.entries)


def all_str(values) -> bool:
    # str.join type-checks every item in C, several times faster than a loop
    try:
        "".join(values)
    except TypeError:
        return False
    return True
