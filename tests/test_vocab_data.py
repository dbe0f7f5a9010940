"""Vocabulary ordering, TSV loading, batching and multi-task interleaving."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpora
from textforge import data_handler as dh
from textforge.data_handler import (FORMAT_DOC, FORMAT_JOINT, FORMAT_WORD,
                                    VocabBundle, batch_examples,
                                    build_char_vocab, build_gaz_vocab,
                                    build_vocab, cap_vocabulary, doc_label_list,
                                    interleave_multitask, load_tsv,
                                    make_batches, single_example_batch,
                                    word_tag_list)
from textforge.errors import (DatasetError, EmptyCorpus, EmptySplit,
                              MultiTaskArity)
from textforge.featurizer import CAP_CLASSES, MAX_TEXT_CHARS, Featurizer, FeaturizerSettings
from textforge.vocab import Vocabulary


class TestVocabulary:
    def test_specials_first(self):
        v = Vocabulary(["x"])
        assert v.entries[:2] == ["<pad>", "<unk>"]
        assert v.lookup("<pad>") == 0
        assert v.lookup("nope") == Vocabulary.UNK_ID == 1

    def test_frequency_then_lexicographic(self):
        v = Vocabulary.build({"b": 2, "a": 2, "c": 3})
        assert v.entries == ["<pad>", "<unk>", "c", "a", "b"]

    def test_min_freq_drops_rare(self):
        v = Vocabulary.build({"a": 5, "b": 1}, min_freq=2)
        assert "b" not in v.index and "a" in v.index

    def test_empty_counts_rejected(self):
        with pytest.raises(EmptyCorpus):
            Vocabulary.build({})

    def test_from_table_keeps_the_table_it_indexes(self):
        table = ["<pad>", "<unk>", "go", "home"]
        vocab = Vocabulary.from_table(table)
        assert vocab.entries is table
        assert vocab == Vocabulary(["go", "home"])
        assert vocab.lookup("home") == 3 and vocab.lookup("away") == Vocabulary.UNK_ID

    @pytest.mark.parametrize("table", [
        ["<pad>", "<unk>", "go", "go"], ["go", "<pad>", "<unk>"], ["<pad>", "<unk>", 3],
        "<pad> <unk> go", ("<pad>", "<unk>"), ["<pad>"], None])
    def test_from_table_refuses_what_a_vocabulary_does_not_store(self, table):
        assert Vocabulary.from_table(table) is None

    def test_equality_is_by_entries(self):
        assert Vocabulary(["a"]) == Vocabulary(["a"])
        assert Vocabulary(["a"]) != Vocabulary(["b"])


def _fz(max_chars=6):
    return Featurizer(FeaturizerSettings(max_chars=max_chars))


def _write(tmp_path, name, lines):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(p)


class TestLoadTsv:
    def test_doc_format(self, tmp_path):
        path = _write(tmp_path, "d.tsv", ["pos\tgood stuff", "neg\tbad stuff"])
        ds = load_tsv(path, FORMAT_DOC, _fz(), "train")
        assert [ex.doc_label for ex in ds] == ["pos", "neg"]
        assert ds.examples[0].feats.token_texts() == ["good", "stuff"]

    def test_word_format_tag_alignment(self, tmp_path):
        path = _write(tmp_path, "w.tsv", ["O B-x\tgo paris"])
        ds = load_tsv(path, FORMAT_WORD, _fz())
        assert ds.examples[0].word_tags == ["O", "B-x"]

    def test_misaligned_tags_fail(self, tmp_path):
        path = _write(tmp_path, "w.tsv", ["O\tgo paris"])
        with pytest.raises(DatasetError):
            load_tsv(path, FORMAT_WORD, _fz())

    def test_tags_count_punctuation_tokens(self, tmp_path):
        # "stop!" featurizes to two tokens, so two tags are required
        path = _write(tmp_path, "w.tsv", ["O O\tstop!"])
        ds = load_tsv(path, FORMAT_WORD, _fz())
        assert len(ds.examples[0].word_tags) == 2

    def test_joint_format(self, tmp_path):
        path = _write(tmp_path, "j.tsv", ["travel O B-x\tgo paris"])
        ds = load_tsv(path, FORMAT_JOINT, _fz())
        ex = ds.examples[0]
        assert ex.doc_label == "travel" and ex.word_tags == ["O", "B-x"]

    def test_gazetteer_column(self, tmp_path):
        path = _write(tmp_path, "g.tsv", ["pos\tgo paris\t3:8:city"])
        ds = load_tsv(path, FORMAT_DOC, _fz())
        assert ds.examples[0].feats.gaz_labels == ["<none>", "city"]

    def test_bad_column_count(self, tmp_path):
        path = _write(tmp_path, "b.tsv", ["just text no tab"])
        with pytest.raises(DatasetError):
            load_tsv(path, FORMAT_DOC, _fz())

    def test_empty_label_rejected(self, tmp_path):
        path = _write(tmp_path, "b.tsv", [" \tsome text"])
        with pytest.raises(DatasetError):
            load_tsv(path, FORMAT_DOC, _fz())

    def test_text_without_tokens_rejected(self, tmp_path):
        path = _write(tmp_path, "b.tsv", ["pos\t   "])
        with pytest.raises(DatasetError):
            load_tsv(path, FORMAT_DOC, _fz())

    def test_blank_lines_skipped(self, tmp_path):
        path = _write(tmp_path, "d.tsv", ["pos\ta", "", "neg\tb"])
        assert len(load_tsv(path, FORMAT_DOC, _fz()).examples) == 2

    def test_text_past_the_bound_names_file_and_line(self, tmp_path):
        path = _write(tmp_path, "b.tsv", ["pos\ta", "neg\t" + "a" * (MAX_TEXT_CHARS + 1)])
        with pytest.raises(DatasetError, match=r"b\.tsv line 2: text of 65537 characters"):
            load_tsv(path, FORMAT_DOC, _fz())

    def test_malformed_gazetteer(self, tmp_path):
        path = _write(tmp_path, "b.tsv", ["pos\tgo paris\tnot-a-span"])
        with pytest.raises(DatasetError):
            load_tsv(path, FORMAT_DOC, _fz())


def _mini_setup(tmp_path):
    fz = _fz()
    path = _write(tmp_path, "d.tsv", [
        "pos\tgood alpha beta",
        "neg\tbad alpha",
        "pos\tgood",
    ])
    ds = load_tsv(path, FORMAT_DOC, fz, "train")
    vocabs = VocabBundle(build_vocab(ds), build_char_vocab(ds),
                         build_gaz_vocab(ds), cap_vocabulary())
    return fz, ds, vocabs


class TestBatching:
    def test_padding_and_mask(self, tmp_path):
        fz, ds, vocabs = _mini_setup(tmp_path)
        batch = batch_examples(ds.examples, vocabs, 6,
                               doc_label_index={"neg": 0, "pos": 1})
        assert batch.token_ids.shape == (3, 3)
        assert batch.lengths.tolist() == [3, 2, 1]
        assert batch.mask.tolist() == [[1, 1, 1], [1, 1, 0], [1, 0, 0]]
        # padding slots hold the pad id
        assert batch.token_ids[2, 1] == 0 and batch.token_ids[2, 2] == 0
        assert batch.doc_labels.tolist() == [1, 0, 1]
        assert batch.size == 3

    def test_unknown_label_fails(self, tmp_path):
        fz, ds, vocabs = _mini_setup(tmp_path)
        with pytest.raises(DatasetError):
            batch_examples(ds.examples, vocabs, 6, doc_label_index={"pos": 0})

    def test_oov_maps_to_unk(self, tmp_path):
        fz, ds, vocabs = _mini_setup(tmp_path)
        feats = fz.featurize("unseen good")
        batch = single_example_batch(feats, vocabs, 6)
        assert batch.token_ids[0, 0] == Vocabulary.UNK_ID
        assert batch.token_ids[0, 1] == vocabs.token.lookup("good")

    def test_single_example_batch_is_unpadded(self, tmp_path):
        fz, ds, vocabs = _mini_setup(tmp_path)
        batch = single_example_batch(fz.featurize("good alpha"), vocabs, 6)
        assert batch.token_ids.shape == (1, 2)
        assert batch.mask.tolist() == [[1.0, 1.0]]
        assert batch.doc_labels is None and batch.word_labels is None

    def test_empty_text_batch(self, tmp_path):
        fz, ds, vocabs = _mini_setup(tmp_path)
        batch = single_example_batch(fz.featurize(""), vocabs, 6)
        assert batch.token_ids.shape == (1, 0)
        assert batch.char_ids.shape == (1, 0, 6)

    def test_make_batches_partitions_everything(self, tmp_path):
        fz, ds, vocabs = _mini_setup(tmp_path)
        full = batch_examples(ds.examples, vocabs, 6, doc_label_index={"neg": 0, "pos": 1})
        batches = make_batches(full, 2)
        assert [b.size for b in batches] == [2, 1]

    def test_batches_are_row_slices_cut_to_their_longest_row(self, tmp_path):
        fz, ds, vocabs = _mini_setup(tmp_path)
        index = {"neg": 0, "pos": 1}
        full = batch_examples(ds.examples, vocabs, 6, doc_label_index=index)
        first, second = make_batches(full, 2, shuffle_seed=3)
        for batch in (first, second):
            # each batch equals vectorizing its examples afresh; the three
            # examples have 3, 2 and 1 tokens, so a length names its row
            rows = [full.lengths.tolist().index(n) for n in batch.lengths]
            direct = batch_examples([ds.examples[i] for i in rows], vocabs, 6,
                                    doc_label_index=index)
            for name in ("token_ids", "char_ids", "lengths", "mask", "doc_labels"):
                assert getattr(batch, name).tobytes() == getattr(direct, name).tobytes(), name
            for name in ("gaz", "cap"):
                assert batch.dense_feats[name].tobytes() == direct.dense_feats[name].tobytes()

    def test_shuffle_is_seed_deterministic(self, tmp_path):
        fz, ds, vocabs = _mini_setup(tmp_path)
        full = batch_examples(ds.examples, vocabs, 6)
        a = make_batches(full, 1, shuffle_seed=7)
        b = make_batches(full, 1, shuffle_seed=7)
        c = make_batches(full, 1, shuffle_seed=8)
        ids = lambda bs: [bb.token_ids.tolist() for bb in bs]
        assert ids(a) == ids(b)
        assert ids(a) != ids(c)


class TestInterleave:
    def test_round_robin_cycles_shorter_sources(self):
        class Stub:
            def __init__(self, tag):
                self.tag = tag
                self.task_id = 0
        a1 = Stub("A1")
        b1, b2, b3 = Stub("B1"), Stub("B2"), Stub("B3")
        out = interleave_multitask([[a1], [b1, b2, b3]])
        assert [b.tag for b in out] == ["A1", "B1", "A1", "B2", "A1", "B3"]
        assert [b.task_id for b in out] == [0, 1, 0, 1, 0, 1]

    def test_needs_two_sources(self):
        with pytest.raises(MultiTaskArity):
            interleave_multitask([[object()]])

    def test_empty_source_fails(self):
        with pytest.raises(EmptySplit):
            interleave_multitask([[object()], []])


class TestLabelLists:
    def test_doc_labels_sorted_unique(self, tmp_path):
        fz, ds, vocabs = _mini_setup(tmp_path)
        assert doc_label_list(ds) == ["neg", "pos"]

    def test_word_tags_sorted(self, tmp_path):
        path = _write(tmp_path, "w.tsv", ["O B-x\tgo paris", "B-x O\tparis go"])
        ds = load_tsv(path, FORMAT_WORD, _fz())
        assert word_tag_list(ds) == ["B-x", "O"]

    def test_cap_vocabulary_is_fixed(self):
        v = cap_vocabulary()
        assert v.entries == ["<pad>", "<unk>"] + list(CAP_CLASSES)

    def test_gaz_vocab_always_has_none(self, tmp_path):
        fz, ds, vocabs = _mini_setup(tmp_path)
        assert "<none>" in vocabs.gaz.index


@pytest.mark.parametrize("fmt,write", [(FORMAT_DOC, corpora.write_doc_tsv),
                                       (FORMAT_WORD, corpora.write_word_tsv),
                                       (FORMAT_JOINT, corpora.write_joint_tsv)])
def test_vocabularies_equal_a_per_token_count(tmp_path, fmt, write):
    # the token and char tables count the whole split at once; a count
    # updated token by token gives the same tables, ties and order included
    ds = load_tsv(write(str(tmp_path / "train.tsv"), 200, seed=3), fmt, _fz())
    tokens, chars = Counter(), Counter()
    for ex in ds:
        for tok in ex.feats.token_texts():
            tokens.update([tok])
            chars.update(tok)
    for min_freq in (1, 5):
        assert build_vocab(ds, min_freq) == Vocabulary.build(tokens, min_freq)
    assert build_char_vocab(ds) == Vocabulary.build(chars)
    assert len(build_char_vocab(ds)) > 2 + 10


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=1, max_size=8))
def test_batch_ids_match_per_token_lookup(tokens):
    """Padding never corrupts the ids of real positions."""
    fz = Featurizer(FeaturizerSettings(max_chars=4))
    vocab = Vocabulary(["aa", "bb", "cc"])
    vocabs = VocabBundle(vocab, Vocabulary(["a", "b", "c", "d"]),
                         Vocabulary(["<none>"]), cap_vocabulary())
    feats = fz.featurize(" ".join(tokens))
    batch = single_example_batch(feats, vocabs, 4)
    expected = [vocab.lookup(t) for t in tokens]
    assert batch.token_ids[0].tolist() == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["ab", "ba", "abcde", "zz", "a"]), max_size=5),
                min_size=1, max_size=5))
def test_char_block_is_each_tokens_char_ids(texts):
    """Char ids looked up once per distinct token text land where a
    per-token lookup puts them, with zeros at padded positions."""
    fz = Featurizer(FeaturizerSettings(max_chars=3))
    vocabs = VocabBundle(Vocabulary(["ab"]), Vocabulary(["a", "b"]),
                         Vocabulary(["<none>"]), cap_vocabulary())
    examples = [dh.Example(" ".join(toks), (), None, None, fz.featurize(" ".join(toks)))
                for toks in texts]
    batch = batch_examples(examples, vocabs, 3)
    expected = np.zeros_like(batch.char_ids)
    for i, toks in enumerate(texts):
        for j, tok in enumerate(toks):
            expected[i, j] = dh.char_ids(tok, vocabs.char, 3)
    assert batch.char_ids.dtype == np.int64
    assert batch.char_ids.tobytes() == expected.tobytes()
