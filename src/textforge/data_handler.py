"""Datasets, vocabularies, batching and multi-task interleaving.

The on-disk format is TSV, one example per line:

    labels <TAB> raw text [<TAB> gazetteer]

For document classification the label column is a single label. For word
tagging it is one tag per token, space separated and aligned to the
featurizer's tokenization. Joint lines put the document label first and the
per-token tags after it in the same column. The optional gazetteer column is
``start:end:kind`` triples joined by commas, with byte offsets.
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DatasetError, EmptyCorpus, EmptySplit, MultiTaskArity
from .featurizer import Featurizer, FeaturizedExample, GazetteerEntry, CAP_CLASSES, GAZ_NONE
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


@dataclass
class Dataset:
    examples: list
    split: str = "train"

    def __len__(self):
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)


@dataclass
class VocabBundle:
    token: Vocabulary
    char: Vocabulary
    gaz: Vocabulary
    cap: Vocabulary


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


def _parse_gazetteer(column: str, line_no: int, path: str):
    entries = []
    for part in column.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise DatasetError("%s line %d: bad gazetteer item %r" % (path, line_no, part))
        try:
            start, end = int(pieces[0]), int(pieces[1])
        except ValueError:
            raise DatasetError("%s line %d: gazetteer offsets must be ints in %r" % (path, line_no, part))
        entries.append(GazetteerEntry(start, end, pieces[2]))
    return tuple(entries)


def load_tsv(path: str, fmt: str, featurizer: Featurizer, split: str = "train") -> Dataset:
    """Load and featurize one TSV file.

    Lines with no tokens, misaligned tags or malformed columns are hard
    errors: silently dropping data would make runs non-reproducible.
    """
    if fmt not in (FORMAT_DOC, FORMAT_WORD, FORMAT_JOINT):
        raise ValueError("unknown dataset format %r" % fmt)
    examples = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            columns = line.split("\t")
            if len(columns) < 2 or len(columns) > 3:
                raise DatasetError("%s line %d: expected 2 or 3 tab-separated columns, got %d"
                                   % (path, line_no, len(columns)))
            label_col, text = columns[0], columns[1]
            entries = _parse_gazetteer(columns[2], line_no, path) if len(columns) == 3 else ()

            doc_label = None
            word_tags = None
            if fmt == FORMAT_DOC:
                doc_label = label_col.strip()
                if not doc_label:
                    raise DatasetError("%s line %d: empty label" % (path, line_no))
            elif fmt == FORMAT_WORD:
                word_tags = label_col.split()
            else:
                pieces = label_col.split()
                if not pieces:
                    raise DatasetError("%s line %d: empty label column" % (path, line_no))
                doc_label, word_tags = pieces[0], pieces[1:]

            feats = featurizer.featurize(text, entries)
            if not feats.tokens:
                raise DatasetError("%s line %d: text produced no tokens" % (path, line_no))
            if word_tags is not None and len(word_tags) != len(feats.tokens):
                raise DatasetError("%s line %d: %d tags for %d tokens"
                                   % (path, line_no, len(word_tags), len(feats.tokens)))
            examples.append(Example(text, entries, doc_label, word_tags, feats))
    return Dataset(examples, split=split)


def build_vocab(train_split: Dataset, min_freq: int = 1) -> Vocabulary:
    """Token vocabulary from the training split only, frequency ordered."""
    if not train_split.examples:
        raise EmptyCorpus("training split is empty")
    counts = Counter()
    for ex in train_split:
        counts.update(ex.feats.token_texts())
    return Vocabulary.build(counts, min_freq)


def build_char_vocab(train_split: Dataset) -> Vocabulary:
    counts = Counter()
    for ex in train_split:
        for tok in ex.feats.token_texts():
            counts.update(tok)
    if not counts:
        raise EmptyCorpus("no characters in training split")
    return Vocabulary.build(counts, min_freq=1)


def build_gaz_vocab(train_split: Dataset) -> Vocabulary:
    counts = Counter()
    for ex in train_split:
        counts.update(ex.feats.gaz_labels)
    counts[GAZ_NONE] += 0 if counts.get(GAZ_NONE) else 1
    return Vocabulary.build(counts, min_freq=1)


def cap_vocabulary() -> Vocabulary:
    return Vocabulary(list(CAP_CLASSES))


def doc_label_list(train_split: Dataset):
    labels = sorted({ex.doc_label for ex in train_split if ex.doc_label is not None})
    if not labels:
        raise EmptyCorpus("no document labels in training split")
    return labels


def word_tag_list(train_split: Dataset):
    tags = set()
    for ex in train_split:
        if ex.word_tags:
            tags.update(ex.word_tags)
    if not tags:
        raise EmptyCorpus("no word tags in training split")
    return sorted(tags)


def _label_id(mapping, label, what):
    try:
        return mapping[label]
    except KeyError:
        raise DatasetError("unknown %s label %r (not in training split)" % (what, label))


def batch_examples(examples, vocabs: VocabBundle, max_chars: int,
                   doc_label_index=None, tag_index=None, task_id: int = 0) -> Batch:
    """Pad a group of featurized examples into one Batch."""
    b = len(examples)
    lengths = np.array([len(ex.feats.tokens) for ex in examples], dtype=np.int64)
    t = int(lengths.max()) if b else 0

    token_ids = np.zeros((b, t), dtype=np.int64)
    char_rows = np.zeros((b, t, max_chars), dtype=np.int64)
    gaz_ids = np.zeros((b, t), dtype=np.int64)
    cap_ids = np.zeros((b, t), dtype=np.int64)
    mask = np.zeros((b, t), dtype=np.float32)

    doc_labels = None
    word_labels = None
    if doc_label_index is not None:
        doc_labels = np.zeros((b,), dtype=np.int64)
    if tag_index is not None:
        word_labels = np.zeros((b, t), dtype=np.int64)

    for i, ex in enumerate(examples):
        feats = ex.feats
        n = len(feats.tokens)
        if feats.char_ids is None:
            raise DatasetError("char ids missing: featurizer has no alphabet attached")
        token_ids[i, :n] = [vocabs.token.lookup(tok) for tok in feats.token_texts()]
        if n:
            char_rows[i, :n] = np.asarray(feats.char_ids, dtype=np.int64)
        gaz_ids[i, :n] = [vocabs.gaz.lookup(lbl) for lbl in feats.gaz_labels]
        cap_ids[i, :n] = [vocabs.cap.lookup(lbl) for lbl in feats.cap_labels]
        mask[i, :n] = 1.0
        if doc_labels is not None:
            if ex.doc_label is None:
                raise DatasetError("example lacks a document label")
            doc_labels[i] = _label_id(doc_label_index, ex.doc_label, "document")
        if word_labels is not None:
            if ex.word_tags is None:
                raise DatasetError("example lacks word tags")
            word_labels[i, :n] = [_label_id(tag_index, tag, "word") for tag in ex.word_tags]

    return Batch(token_ids, char_rows, {"gaz": gaz_ids, "cap": cap_ids},
                 lengths, mask, doc_labels, word_labels, task_id)


def make_batches(dataset: Dataset, batch_size: int, vocabs: VocabBundle, max_chars: int,
                 doc_label_index=None, tag_index=None, shuffle_seed=None, task_id: int = 0):
    """Batch a dataset in order, or in a seeded permutation when asked.

    Every example appears in exactly one batch; the tail batch may be short.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.arange(len(dataset.examples))
    if shuffle_seed is not None:
        order = np.random.Generator(np.random.PCG64(shuffle_seed)).permutation(len(order))
    batches = []
    for at in range(0, len(order), batch_size):
        chunk = [dataset.examples[i] for i in order[at:at + batch_size]]
        batches.append(batch_examples(chunk, vocabs, max_chars,
                                      doc_label_index, tag_index, task_id))
    return batches


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
