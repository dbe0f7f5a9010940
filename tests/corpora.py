"""Synthetic corpora with known structure, shared across the test suite.

Doc corpora: the label is fully determined by which keyword appears in the
text, so a convolutional classifier can reach perfect accuracy. Word corpora:
tokens from a fixed slot lexicon are tagged B-slot, everything else O, so the
tagging is a function of token identity. Joint corpora carry both columns.
"""

import json
import os

import numpy as np

FILLERS = ["the", "a", "please", "now", "again", "quickly", "maybe",
           "around", "tonight", "tomorrow", "soon", "later"]

# five labels, each announced by its own keyword
DOC_KEYWORDS = {
    "alarm": "wake",
    "music": "play",
    "weather": "forecast",
    "call": "dial",
    "timer": "countdown",
}
DOC_LABELS = sorted(DOC_KEYWORDS)

SLOT_WORDS = ["paris", "london", "tokyo", "oslo", "madrid",
              "berlin", "lisbon", "dublin", "vienna", "prague"]
TAG_SLOT = "B-slot"
TAG_OUT = "O"


def _pick(rng, items):
    return items[int(rng.integers(0, len(items)))]


def doc_rows(n, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        label = DOC_LABELS[i % len(DOC_LABELS)]
        toks = [_pick(rng, FILLERS) for _ in range(int(rng.integers(3, 9)))]
        toks.insert(int(rng.integers(0, len(toks) + 1)), DOC_KEYWORDS[label])
        rows.append((label, " ".join(toks)))
    return rows


def tag_rows(n, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        toks, tags = [], []
        for _ in range(int(rng.integers(3, 9))):
            if rng.integers(0, 3) == 0:
                toks.append(_pick(rng, SLOT_WORDS))
                tags.append(TAG_SLOT)
            else:
                toks.append(_pick(rng, FILLERS))
                tags.append(TAG_OUT)
        rows.append((tags, toks))
    return rows


def joint_rows(n, seed):
    """Doc label from a keyword in the first position, slot tags elsewhere."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        label = DOC_LABELS[i % len(DOC_LABELS)]
        tags, toks = tag_rows(1, int(rng.integers(0, 2 ** 31)))[0]
        toks = [DOC_KEYWORDS[label]] + toks
        tags = [TAG_OUT] + tags
        rows.append((label, tags, toks))
    return rows


def write_doc_tsv(path, n, seed):
    with open(path, "w", encoding="utf-8") as fh:
        for label, text in doc_rows(n, seed):
            fh.write("%s\t%s\n" % (label, text))
    return path


def write_word_tsv(path, n, seed):
    with open(path, "w", encoding="utf-8") as fh:
        for tags, toks in tag_rows(n, seed):
            fh.write("%s\t%s\n" % (" ".join(tags), " ".join(toks)))
    return path


def write_joint_tsv(path, n, seed):
    with open(path, "w", encoding="utf-8") as fh:
        for label, tags, toks in joint_rows(n, seed):
            fh.write("%s %s\t%s" % (label, " ".join(tags), " ".join(toks)) + "\n")
    return path


def doc_config(dirpath, n_train=100, n_eval=40, seed=0, epochs=3, lr=0.01,
               representation=None, embedding=None, batch_size=16,
               with_test=False):
    train = write_doc_tsv(os.path.join(dirpath, "train.tsv"), n_train, seed + 1)
    eval_ = write_doc_tsv(os.path.join(dirpath, "eval.tsv"), n_eval, seed + 2)
    data = {"train_path": train, "eval_path": eval_, "batch_size": batch_size}
    if with_test:
        data["test_path"] = write_doc_tsv(os.path.join(dirpath, "test.tsv"),
                                          n_eval, seed + 3)
    return {"task": {"doc_classification": {
        "data": {"tsv": data},
        "model": {"single": {
            "embedding": embedding or {"token": {"word_dim": 24}},
            "representation": representation or
                {"docnn": {"filter_widths": [1, 2], "num_filters": 16}},
            "output": {"doc_classification": {}},
        }},
        "optimizer": {"adam": {"lr": lr}},
        "trainer": {"standard": {"epochs": epochs, "seed": seed}},
    }}}


def word_config(dirpath, n_train=100, n_eval=40, seed=0, epochs=3, lr=0.01,
                hidden_dim=24, embedding=None, batch_size=16, with_test=False):
    train = write_word_tsv(os.path.join(dirpath, "train.tsv"), n_train, seed + 1)
    eval_ = write_word_tsv(os.path.join(dirpath, "eval.tsv"), n_eval, seed + 2)
    data = {"train_path": train, "eval_path": eval_, "batch_size": batch_size}
    if with_test:
        data["test_path"] = write_word_tsv(os.path.join(dirpath, "test.tsv"),
                                           n_eval, seed + 3)
    return {"task": {"word_tagging": {
        "data": {"tsv": data},
        "model": {"single": {
            "embedding": embedding or {"token": {"word_dim": 24}},
            "representation": {"bilstm_tagger": {"hidden_dim": hidden_dim}},
            "output": {"word_tagging": {}},
        }},
        "optimizer": {"adam": {"lr": lr}},
        "trainer": {"standard": {"epochs": epochs, "seed": seed}},
    }}}


def joint_config(dirpath, n_train=100, n_eval=40, seed=0, epochs=3, lr=0.01,
                 batch_size=16):
    paths = {}
    for split, n in (("train", n_train), ("eval", n_eval)):
        paths[split] = [
            write_joint_tsv(os.path.join(dirpath, "%s0.tsv" % split), n, seed + 10),
            write_joint_tsv(os.path.join(dirpath, "%s1.tsv" % split), n, seed + 20),
        ]
    return {"task": {"joint_doc_word": {
        "data": {"tsv_pair": {"train_paths": paths["train"],
                              "eval_paths": paths["eval"],
                              "batch_size": batch_size}},
        "model": {"joint": {
            "embedding": {"token": {"word_dim": 24}},
            "doc_representation": {"bilstm_attn": {"hidden_dim": 16,
                                                   "attention_dim": 12}},
            "word_representation": {"bilstm_tagger": {"hidden_dim": 16}},
        }},
        "optimizer": {"adam": {"lr": lr}},
        "trainer": {"standard": {"epochs": epochs, "seed": seed}},
    }}}


def as_text(config: dict) -> str:
    return json.dumps(config)
