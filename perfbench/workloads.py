"""The benchmark's workloads: traffic shape, task config and quality floor.

Each workload exists to stress a different set of layers; ``why``,
``moves`` and ``still`` record which layers it should move and which it
should leave alone, so a change to one layer has a workload that exercises
it and one that predicts no change.
"""

import json
import os
from dataclasses import dataclass

from traffic import TrafficSpec, format_tsv


@dataclass(frozen=True)
class Workload:
    name: str
    task: str                 # textforge task kind
    spec: TrafficSpec
    model: dict               # the config's "model" component
    epochs: int
    batch_size: int
    lr: float
    score_floor: float        # a training run scoring below this has failed
    why: str
    moves: tuple
    still: tuple

    def heads(self):
        return ("doc", "word") if self.task == "joint_doc_word" else ("",)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="doc_cnn",
        task="doc_classification",
        spec=TrafficSpec(n_types=3000, n_labels=8, slot_words=0, slot_share=0.0,
                         novel_share=0.06, mixed_case=0.0, n_train=1600, n_eval=320,
                         train_len=(3, 14), serve_len=(2, 12), n_requests=4000),
        model={"single": {
            "embedding": {"token": {"word_dim": 64}},
            "representation": {"docnn": {"filter_widths": [2, 3, 4], "num_filters": 64}},
            "output": {"doc_classification": {}},
        }},
        epochs=4, batch_size=32, lr=0.005, score_floor=0.9,
        why="cheapest model per request, so fixed per-request costs dominate: "
            "featurize, prepare_feed, per-op dispatch, softmax/argmax",
        moves=("featurizer", "graph.prepare_feed", "graph.run_feed dispatch",
               "kernels.conv_maxpool"),
        still=("kernels.lstm_seq", "char path (LookupChars, char conv, highway)"),
    ),
    Workload(
        name="joint_bilstm",
        task="joint_doc_word",
        spec=TrafficSpec(n_types=3000, n_labels=8, slot_words=40, slot_share=0.25,
                         novel_share=0.05, mixed_case=0.0, n_train=1000, n_eval=240,
                         train_len=(4, 24), serve_len=(4, 24), n_requests=600),
        model={"joint": {
            "embedding": {"token": {"word_dim": 64}},
            "doc_representation": {"bilstm_attn": {"hidden_dim": 64, "attention_dim": 64}},
            "word_representation": {"bilstm_tagger": {"hidden_dim": 64}},
        }},
        epochs=4, batch_size=32, lr=0.02, score_floor=0.9,
        why="the paper's intent + slot model; kernels.lstm_seq dominates serving and "
            "training, and each request runs two head graphs over one shared trunk",
        moves=("kernels.lstm_seq", "kernels.sigmoid", "kernels.self_attention",
               "a single joint graph"),
        still=("kernels.conv_maxpool", "char path (LookupChars, char conv, highway)"),
    ),
    Workload(
        name="tagger_char",
        task="word_tagging",
        spec=TrafficSpec(n_types=3000, n_labels=8, slot_words=40, slot_share=0.3,
                         novel_share=0.05, mixed_case=0.3, n_train=1600, n_eval=320,
                         train_len=(3, 16), serve_len=(3, 16), n_requests=1500),
        model={"single": {
            "embedding": {"token": {"word_dim": 32, "char_dim": 16,
                                    "char_filter_widths": [3], "char_num_filters": 32,
                                    "char_highway_layers": 1, "cap_dim": 8}},
            "representation": {"bilstm_tagger": {"hidden_dim": 48}},
            "output": {"word_tagging": {}},
        }},
        epochs=4, batch_size=32, lr=0.01, score_floor=0.9,
        why="training-heavy char tagger: tape backward, conv/LSTM backward, Adam and a "
            "binio checkpoint write every epoch; the only workload on the char path",
        moves=("tensor.backward", "kernels.*_backward", "trainer", "binio.encode",
               "LookupChars / char conv / highway"),
        still=("kernels.self_attention",),
    ),
)}


def write_task(workload: Workload, traffic, seed: int, workdir: str) -> str:
    """Write the workload's TSVs under workdir and return the config JSON."""
    def dump(name, rows, kind):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(format_tsv(rows, kind))
        return path

    trainer = {"standard": {"epochs": workload.epochs, "seed": seed}}
    optimizer = {"adam": {"lr": workload.lr}}
    if workload.task == "joint_doc_word":
        # two sources, as the joint data handler requires; both carry both views
        half_t = len(traffic.train_rows) // 2
        half_e = len(traffic.eval_rows) // 2
        data = {"tsv_pair": {
            "train_paths": [dump("train0.tsv", traffic.train_rows[:half_t], "joint"),
                            dump("train1.tsv", traffic.train_rows[half_t:], "joint")],
            "eval_paths": [dump("eval0.tsv", traffic.eval_rows[:half_e], "joint"),
                           dump("eval1.tsv", traffic.eval_rows[half_e:], "joint")],
            "batch_size": workload.batch_size,
        }}
    else:
        kind = "doc" if workload.task == "doc_classification" else "word"
        data = {"tsv": {
            "train_path": dump("train.tsv", traffic.train_rows, kind),
            "eval_path": dump("eval.tsv", traffic.eval_rows, kind),
            "batch_size": workload.batch_size,
        }}
    return json.dumps({"task": {workload.task: {
        "data": data, "model": workload.model,
        "optimizer": optimizer, "trainer": trainer,
    }}})
