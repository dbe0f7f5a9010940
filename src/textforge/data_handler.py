"""Datasets, vocabularies, batching and multi-task interleaving.

The on-disk format is TSV, one example per line:

    labels <TAB> raw text [<TAB> gazetteer]

For document classification the label column is a single label. For word
tagging it is one tag per token, space separated and aligned to the
featurizer's tokenization. Joint lines put the document label first and the
per-token tags after it in the same column. The optional gazetteer column is
``start:end:kind`` triples joined by commas, with byte offsets.
"""

import io
from collections import Counter
from dataclasses import dataclass, fields
from itertools import chain
from typing import Optional

import numpy as np

from .errors import (DatasetError, EmptyCorpus, EmptySplit, MultiTaskArity, NotUtf8,
                     OverlappingEntries, TextTooLong)
from .featurizer import (CAP_CLASSES, GAZ_NONE, Featurizer, FeaturizedExample,
                         GazetteerEntry, char_ids)
from .vocab import Vocabulary

FORMAT_DOC = "doc"
FORMAT_WORD = "word"
FORMAT_JOINT = "joint"


@dataclass
class Example:
    raw_text: str
    entries: tuple
    doc_label: Optional[str]
    word_tags: Optional[list]
    feats: Optional[FeaturizedExample] = None
    path: str = ""                 # the TSV file and line the example came from
    line_no: int = 0


@dataclass
class Dataset:
    examples: list
    split: str = "train"

    def __iter__(self):
        return iter(self.examples)


@dataclass
class VocabBundle:
    token: Vocabulary
    char: Vocabulary
    gaz: Vocabulary
    cap: Vocabulary


VOCAB_NAMES = tuple(f.name for f in fields(VocabBundle))


@dataclass
class Batch:
    token_ids: np.ndarray          # [b, t] int64, right-padded with 0
    char_ids: np.ndarray           # [b, t, max_chars] int64
    dense_feats: dict              # name -> [b, t] int64 (gaz and cap ids)
    lengths: np.ndarray            # [b] int64
    mask: np.ndarray               # [b, t] float32 of {0, 1}
    doc_labels: Optional[np.ndarray] = None   # [b] int64
    word_labels: Optional[np.ndarray] = None  # [b, t] int64, padded with 0
    task_id: int = 0

    @property
    def size(self):
        return self.token_ids.shape[0]

    @property
    def padded_lengths(self):
        """lengths when some row is shorter than the batch, else None."""
        return self.lengths if (self.lengths < self.token_ids.shape[1]).any() else None

    def take(self, rows) -> "Batch":
        """The Batch of the given rows, cut to their longest length."""
        t = int(self.lengths[rows].max())

        def cut(ids):
            return None if ids is None else ids[rows, :t] if ids.ndim > 1 else ids[rows]
        return Batch(cut(self.token_ids), cut(self.char_ids),
                     {name: cut(ids) for name, ids in self.dense_feats.items()}, cut(self.lengths),
                     cut(self.mask), cut(self.doc_labels), cut(self.word_labels))


def read_lines(path: str) -> list:
    """The lines of a UTF-8 text file (a config, TSV, vectors or input file)."""
    with open(path, "rb") as handle:
        return text_lines(handle.read(), path)


def text_lines(data: bytes, source: str) -> list:
    """The lines of UTF-8 text read from source, split on universal newlines
    as a text-mode file is, newlines stripped; bytes that are not UTF-8 raise
    NotUtf8 naming source."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NotUtf8("%s is not UTF-8 text: %s" % (source, exc.reason))
    return [line.rstrip("\n") for line in io.StringIO(text, newline=None)]


def _parse_gazetteer(column: str, text: str, where: str):
    n_bytes = len(text.encode("utf-8"))
    entries = []
    for part in column.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise DatasetError("%s: bad gazetteer item %r" % (where, part))
        try:
            start, end = int(pieces[0]), int(pieces[1])
        except ValueError:
            raise DatasetError("%s: gazetteer offsets must be ints in %r" % (where, part))
        if pieces[2] in (Vocabulary.PAD, Vocabulary.UNK):
            raise DatasetError("%s: gazetteer kind %r is reserved in %r" % (where, pieces[2], part))
        if start < 0 or end > n_bytes:
            raise DatasetError("%s: gazetteer item %r lies outside the text's %d bytes"
                               % (where, part, n_bytes))
        entries.append(GazetteerEntry(start, end, pieces[2]))
    return tuple(entries)


def load_tsv(path: str, fmt: str, featurizer: Featurizer, split: str = "train") -> Dataset:
    """Load and featurize one TSV file.

    Lines with no tokens, misaligned tags or malformed columns are hard
    errors: silently dropping data would make runs non-reproducible.
    """
    examples = []
    for line_no, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        where = "%s line %d" % (path, line_no)
        columns = line.split("\t")
        if len(columns) < 2 or len(columns) > 3:
            raise DatasetError("%s: expected 2 or 3 tab-separated columns, got %d"
                               % (where, len(columns)))
        label_col, text = columns[0], columns[1]
        entries = _parse_gazetteer(columns[2], text, where) if len(columns) == 3 else ()

        doc_label = None
        word_tags = None
        if fmt == FORMAT_DOC:
            doc_label = label_col.strip()
            if not doc_label:
                raise DatasetError("%s: empty label" % where)
        elif fmt == FORMAT_WORD:
            word_tags = label_col.split()
        else:
            pieces = label_col.split()
            if not pieces:
                raise DatasetError("%s: empty label column" % where)
            doc_label, word_tags = pieces[0], pieces[1:]

        try:
            feats = featurizer.featurize(text, entries)
        except (OverlappingEntries, TextTooLong) as exc:
            raise DatasetError("%s: %s" % (where, exc))
        if not feats.tokens:
            raise DatasetError("%s: text produced no tokens" % where)
        if word_tags is not None and len(word_tags) != len(feats.tokens):
            raise DatasetError("%s: %d tags for %d tokens"
                               % (where, len(word_tags), len(feats.tokens)))
        examples.append(Example(text, entries, doc_label, word_tags, feats, path, line_no))
    return Dataset(examples, split=split)


def _token_texts(split: Dataset):
    return chain.from_iterable(ex.feats.token_texts() for ex in split)


def build_vocab(train_split: Dataset, min_freq: int = 1) -> Vocabulary:
    """Token vocabulary from the training split only, frequency ordered."""
    if not train_split.examples:
        raise EmptyCorpus("training split is empty")
    return Vocabulary.build(Counter(_token_texts(train_split)), min_freq)


def build_char_vocab(train_split: Dataset) -> Vocabulary:
    # one Counter over all the split's characters, counted in C
    return Vocabulary.build(Counter("".join(_token_texts(train_split))), min_freq=1)


def build_gaz_vocab(train_split: Dataset) -> Vocabulary:
    counts = Counter()
    for ex in train_split:
        counts.update(ex.feats.gaz_labels)
    counts[GAZ_NONE] += 0 if counts.get(GAZ_NONE) else 1
    return Vocabulary.build(counts, min_freq=1)


def cap_vocabulary() -> Vocabulary:
    return Vocabulary(list(CAP_CLASSES))


def doc_label_list(train_split: Dataset):
    return sorted({ex.doc_label for ex in train_split if ex.doc_label is not None})


def word_tag_list(train_split: Dataset):
    tags = set()
    for ex in train_split:
        if ex.word_tags:
            tags.update(ex.word_tags)
    return sorted(tags)


def _label_id(mapping, label, what, ex):
    try:
        return mapping[label]
    except KeyError:
        raise DatasetError("%s line %d: unknown %s label %r (not in training split)"
                           % (ex.path, ex.line_no, what, label))


def batch_examples(examples, vocabs: VocabBundle, max_chars: int,
                   doc_label_index=None, tag_index=None) -> Batch:
    """The one eager vectorizer: the token, char, gaz and cap ids of featurized
    examples, and their label ids for each label index given, in one padded Batch.

    max_chars 0 leaves the char-id block empty, for models that embed no chars."""
    b = len(examples)
    lengths = np.array([len(ex.feats.tokens) for ex in examples], dtype=np.int64)
    t = int(lengths.max()) if b else 0

    token_ids = np.zeros((b, t), dtype=np.int64)
    char_rows = np.zeros((b, t, max_chars), dtype=np.int64)
    gaz_ids = np.zeros((b, t), dtype=np.int64)
    cap_ids = np.zeros((b, t), dtype=np.int64)
    mask = (np.arange(t) < lengths[:, None]).astype(np.float32)
    doc_labels = np.zeros((b,), dtype=np.int64) if doc_label_index is not None else None
    word_labels = np.zeros((b, t), dtype=np.int64) if tag_index is not None else None
    chars_of = {}  # token text -> its char ids, looked up once per call

    def token_chars(tok):
        ids = chars_of.get(tok)
        if ids is None:
            ids = chars_of[tok] = char_ids(tok, vocabs.char, max_chars)
        return ids

    for i, ex in enumerate(examples):
        feats = ex.feats
        texts = feats.token_texts()
        n = len(texts)
        token_ids[i, :n] = [vocabs.token.lookup(tok) for tok in texts]
        if n and max_chars:
            char_rows[i, :n] = [token_chars(tok) for tok in texts]
        gaz_ids[i, :n] = [vocabs.gaz.lookup(lbl) for lbl in feats.gaz_labels]
        cap_ids[i, :n] = [vocabs.cap.lookup(lbl) for lbl in feats.cap_labels]
        if doc_labels is not None:
            doc_labels[i] = _label_id(doc_label_index, ex.doc_label, "document", ex)
        if word_labels is not None:
            word_labels[i, :n] = [_label_id(tag_index, tag, "word", ex) for tag in ex.word_tags]

    return Batch(token_ids, char_rows, {"gaz": gaz_ids, "cap": cap_ids},
                 lengths, mask, doc_labels, word_labels)


def make_batches(full: Batch, batch_size: int, shuffle_seed=None):
    """Cut a vectorized source into batches of its rows, in order or in a
    seeded permutation; each batch is padded to its own longest row.

    Every row appears in exactly one batch; the tail batch may be short.
    """
    order = np.arange(full.size)
    if shuffle_seed is not None:
        order = np.random.Generator(np.random.PCG64(shuffle_seed)).permutation(len(order))
    return [full.take(order[at:at + batch_size]) for at in range(0, len(order), batch_size)]


def single_example_batch(feats: FeaturizedExample, vocabs: VocabBundle, max_chars: int) -> Batch:
    """Batch of one unlabeled example, unpadded (t equals the token count)."""
    ex = Example(feats.raw_text, (), None, None, feats)
    return batch_examples([ex], vocabs, max_chars)


def interleave_multitask(batch_lists):
    """Round-robin over per-task batch lists, tagging each batch's task_id.

    The epoch ends when the largest source is exhausted; smaller sources
    cycle from their start, replaying the same epoch order.
    """
    if len(batch_lists) < 2:
        raise MultiTaskArity("multi-task interleave needs at least 2 sources, got %d" % len(batch_lists))
    for k, batches in enumerate(batch_lists):
        if not batches:
            raise EmptySplit("task %d has no batches" % k)
    rounds = max(len(b) for b in batch_lists)
    out = []
    for r in range(rounds):
        for k, batches in enumerate(batch_lists):
            batch = batches[r % len(batches)]
            batch.task_id = k
            out.append(batch)
    return out
