"""Wires a validated task config into a runnable pipeline.

A Pipeline owns the featurizer, vocabularies, datasets, model and optimizer,
and knows how to produce training batches, evaluate, and predict eagerly.
It is built from a config plus data files (instantiate_task, for training)
or from a checkpoint alone (restore_pipeline, for prediction and export).
Both differ only in where the vocabularies, labels and seed come from, and
then go through one assembler that builds the model, settings and optimizer.

Every task reads its data as per-split lists of sources: one TSV per split
for doc classification and word tagging, two for the joint task, whose
heads train on one source each.
"""

from dataclasses import dataclass
from typing import Optional

from . import components, data_handler, metrics, ops
from .data_handler import (FORMAT_DOC, FORMAT_JOINT, FORMAT_WORD, VOCAB_NAMES, Dataset,
                           VocabBundle, interleave_multitask, make_batches, single_example_batch)
from .errors import EmptySplit, SchemaViolation
from .featurizer import Featurizer, FeaturizerSettings, char_rows
from .model_zoo import load_params
from .registry import TaskConfig, parse_task_config, serialize_task_config
from .trainer import derive_rng, seed_sequence
from .vocab import Vocabulary


@dataclass
class Settings:
    epochs: int
    patience: int
    seed: int
    batch_size: int


@dataclass
class ExportSettings:
    out_path: str
    bake_vocab: bool


class Pipeline:
    def __init__(self, config: TaskConfig, featurizer: Featurizer, vocabs: VocabBundle,
                 doc_labels, word_tags, model, optimizer, settings: Settings,
                 export: ExportSettings, datasets=None):
        self.config = config
        self.config_text = serialize_task_config(config)
        self.task = config.task_kind
        self.featurizer = featurizer
        self.vocabs = vocabs
        self.doc_labels = doc_labels or []
        self.word_tags = word_tags or []
        self.model = model
        self.optimizer = optimizer
        self.settings = settings
        self.export = export
        # split -> list of Datasets, one per source ("test" may be empty);
        # None when restored from a checkpoint
        self.datasets = datasets

    @property
    def max_chars(self):
        return self.featurizer.settings.max_chars

    def _label_kwargs(self):
        """make_batches label indexes for the label kinds this task uses."""
        kwargs = {}
        if self.task != components.WORD_TASK:
            kwargs["doc_label_index"] = {label: i for i, label in enumerate(self.doc_labels)}
        if self.task != components.DOC_TASK:
            kwargs["tag_index"] = {tag: i for i, tag in enumerate(self.word_tags)}
        return kwargs

    def _require_data(self):
        if self.datasets is None:
            raise EmptySplit("pipeline was restored without data files")

    # -- training interface ------------------------------------------------

    def train_batches(self, epoch: int):
        self._require_data()
        sources = self.datasets["train"]
        kwargs = self._label_kwargs()
        lists = []
        for k, ds in enumerate(sources):
            # one source shuffles under (1, epoch), several under (1, epoch, k)
            key = (1, epoch, k) if len(sources) > 1 else (1, epoch)
            lists.append(make_batches(
                ds, self.settings.batch_size, self.vocabs, self.max_chars,
                shuffle_seed=seed_sequence(self.settings.seed, *key), task_id=k, **kwargs))
        return interleave_multitask(lists) if len(lists) > 1 else lists[0]

    def train_loss(self, batch):
        if self.task == components.JOINT_TASK:
            name, out = self.model.forward(batch, compute_loss=True)
            return ops.mul_scalar(out.loss, self.model.loss_weights[name])
        return self.model.forward(batch, compute_loss=True).loss

    # -- evaluation ----------------------------------------------------------

    def _eval_batches(self, ds, kwargs):
        if not ds.examples:
            raise EmptySplit("%s split is empty" % ds.split)
        return make_batches(ds, self.settings.batch_size, self.vocabs, self.max_chars,
                            shuffle_seed=None, **kwargs)

    def _collect_doc(self, model, batches):
        golds, preds = [], []
        for batch in batches:
            out = model.forward(batch, compute_loss=False)
            golds.extend(int(g) for g in batch.doc_labels)
            preds.extend(int(p) for p in out.preds)
        return golds, preds

    def _collect_word(self, model, batches):
        golds, preds = [], []
        for batch in batches:
            out = model.forward(batch, compute_loss=False)
            for i in range(batch.size):
                n = int(batch.lengths[i])
                golds.append([int(x) for x in batch.word_labels[i, :n]])
                preds.append([int(x) for x in out.preds[i, :n]])
        return golds, preds

    def evaluate(self):
        """Score the current model on the eval split(s).

        Returns (selection score, metric dict). Doc tasks select on accuracy,
        word tasks on macro F1 of token labels, the joint task on their mean.
        """
        self._require_data()
        kwargs = self._label_kwargs()
        batches = [self._eval_batches(ds, kwargs) for ds in self.datasets["eval"]]
        if self.task == components.DOC_TASK:
            golds, preds = self._collect_doc(self.model, batches[0])
            rep = metrics.classification_report(golds, preds, len(self.doc_labels))
            return rep.accuracy, {"accuracy": rep.accuracy, "macro_f1": rep.macro_f1}
        if self.task == components.WORD_TASK:
            golds, preds = self._collect_word(self.model, batches[0])
            rep = metrics.tagging_report(golds, preds, len(self.word_tags))
            return rep.macro_f1, {"token_accuracy": rep.token_accuracy,
                                  "macro_f1": rep.macro_f1}

        doc_model, word_model = self.model.tasks["doc"], self.model.tasks["word"]
        golds, preds = self._collect_doc(doc_model, batches[0])
        doc_rep = metrics.classification_report(golds, preds, len(self.doc_labels))
        wgolds, wpreds = self._collect_word(word_model, batches[1])
        word_rep = metrics.tagging_report(wgolds, wpreds, len(self.word_tags))
        # frame accuracy over the first source, which carries both label kinds
        tg, tp = self._collect_word(word_model, batches[0])
        frame = metrics.frame_accuracy(golds, preds, tg, tp)

        score = (doc_rep.accuracy + word_rep.macro_f1) / 2.0
        return score, {"doc_accuracy": doc_rep.accuracy,
                       "word_macro_f1": word_rep.macro_f1,
                       "frame_accuracy": frame}

    # -- prediction -----------------------------------------------------------

    def predict(self, feats) -> dict:
        """Eager single-example prediction from a FeaturizedExample."""
        batch = single_example_batch(feats, self.vocabs, self.max_chars)
        if self.task == components.JOINT_TASK:
            doc = self.model.tasks["doc"].forward(batch, compute_loss=False)
            word = self.model.tasks["word"].forward(batch, compute_loss=False)
            result = prediction_json(components.DOC_TASK, self.doc_labels,
                                     doc.preds[0], doc.scores[0])
            result["tags"] = prediction_json(components.WORD_TASK, self.word_tags,
                                             word.preds[0], word.scores[0])["tags"]
            return result
        out = self.model.forward(batch, compute_loss=False)
        labels = self.doc_labels if self.task == components.DOC_TASK else self.word_tags
        return prediction_json(self.task, labels, out.preds[0], out.scores[0])

    # -- persistence ------------------------------------------------------------

    def snapshot_meta(self):
        return {
            "task": self.task,
            "config": self.config_text,
            "vocabs": {name: list(getattr(self.vocabs, name).entries)
                       for name in VOCAB_NAMES},
            "labels": {"doc": list(self.doc_labels), "word": list(self.word_tags)},
        }


def prediction_json(task, labels, pred, scores) -> dict:
    """The prediction JSON for one example from a head's pred and scores.

    Word tagging gives a tag and its score per token (pred [t], scores
    [t, k]); the other tasks give one label and its score (pred a scalar,
    scores [k]). Eager prediction and exported graphs both format here.
    """
    if task == components.WORD_TASK:
        tags = [labels[int(i)] for i in pred]
        tag_scores = [float(scores[i, int(p)]) for i, p in enumerate(pred)]
        return {"label": None, "score": None, "tags": tags, "tag_scores": tag_scores}
    pred = int(pred)
    return {"label": labels[pred], "score": float(scores[pred])}


def _build_featurizer(cfg) -> Featurizer:
    settings = FeaturizerSettings(lowercase=cfg.params["lowercase"],
                                  max_chars=cfg.params["max_chars"])
    return Featurizer(settings)


def _load_data(config: TaskConfig):
    """Load every split as a list of sources: two for joint, one otherwise.

    Vocabularies and labels come from the union of the train sources (for a
    single task, the train set itself). Every example then gets char ids from
    its tokens. Returns (vocabs, doc_labels, word_tags, datasets); a task has
    no labels of the kind it does not use.
    """
    task = config.task_kind
    data_cfg = config.root.child("data")
    p = data_cfg.params
    if task == components.JOINT_TASK:
        if data_cfg.name != "tsv_pair":
            raise SchemaViolation("joint task needs the tsv_pair data handler")
        if len(p["train_paths"]) != 2 or len(p["eval_paths"]) != 2:
            raise SchemaViolation("joint task declares exactly two data sources")
        if p["test_paths"] and len(p["test_paths"]) != 2:
            raise SchemaViolation("joint test_paths must list two files when present")
        fmt = FORMAT_JOINT
        paths = {"train": p["train_paths"], "eval": p["eval_paths"], "test": p["test_paths"]}
    else:
        if data_cfg.name != "tsv":
            raise SchemaViolation("task %s needs the tsv data handler" % task)
        fmt = FORMAT_DOC if task == components.DOC_TASK else FORMAT_WORD
        paths = {"train": [p["train_path"]], "eval": [p["eval_path"]],
                 "test": [p["test_path"]] if p["test_path"] else []}

    fz = _build_featurizer(config.root.child("featurizer"))
    datasets = {split: [data_handler.load_tsv(path, fmt, fz, split) for path in sources]
                for split, sources in paths.items()}
    union = Dataset([ex for ds in datasets["train"] for ex in ds.examples], "train")
    vocabs = VocabBundle(
        token=data_handler.build_vocab(union, p["min_freq"]),
        char=data_handler.build_char_vocab(union),
        gaz=data_handler.build_gaz_vocab(union),
        cap=data_handler.cap_vocabulary(),
    )
    settings = fz.with_alphabet(vocabs.char).settings
    for sources in datasets.values():
        for ds in sources:
            for ex in ds.examples:
                ex.feats.char_ids = char_rows(ex.feats.tokens, settings)
    doc_labels = data_handler.doc_label_list(union) if task != components.WORD_TASK else None
    word_tags = data_handler.word_tag_list(union) if task != components.DOC_TASK else None
    return vocabs, doc_labels, word_tags, datasets


def _assemble(config: TaskConfig, vocabs: VocabBundle, doc_labels, word_tags, seed: int,
              datasets=None) -> Pipeline:
    """The pipeline for a config and its vocabularies and labels.

    Builds the featurizer, the model (initialized from the seed), the
    settings and the optimizer; both instantiate_task and restore_pipeline
    end here.
    """
    root = config.root
    fz = _build_featurizer(root.child("featurizer")).with_alphabet(vocabs.char)
    model = components.build_model(root.child("model"), config.task_kind, vocabs,
                                   doc_labels, word_tags, derive_rng(seed, 0))
    tparams = root.child("trainer").params
    settings = Settings(epochs=tparams["epochs"], patience=tparams["patience"],
                        seed=seed, batch_size=root.child("data").params["batch_size"])
    eparams = root.child("export").params
    export = ExportSettings(out_path=eparams["out_path"], bake_vocab=eparams["bake_vocab"])
    optimizer = components.build_optimizer(root.child("optimizer"), model.parameters())
    return Pipeline(config, fz, vocabs, doc_labels, word_tags, model, optimizer,
                    settings, export, datasets)


def instantiate_task(config: TaskConfig, seed_override: Optional[int] = None) -> Pipeline:
    """Construct the full pipeline for a config, loading and vectorizing data."""
    tparams = config.root.child("trainer").params
    if seed_override is not None:
        tparams["seed"] = int(seed_override)
    vocabs, doc_labels, word_tags, datasets = _load_data(config)
    return _assemble(config, vocabs, doc_labels, word_tags, tparams["seed"], datasets)


def restore_pipeline(payload: dict, use_best: bool = True) -> Pipeline:
    """Rebuild a pipeline from a checkpoint alone; no data files are read.

    use_best selects the best-epoch parameters (for prediction and export);
    pass False to get the last-epoch state instead.
    """
    config = parse_task_config(payload["config"])
    vocabs = VocabBundle(**{name: Vocabulary(payload["vocabs"][name]) for name in VOCAB_NAMES})
    pipe = _assemble(config, vocabs, payload["labels"]["doc"], payload["labels"]["word"],
                     payload["seed"])
    use_best = use_best and payload["best_epoch"] >= 0
    load_params(pipe.model, payload["best_params" if use_best else "params"])
    return pipe
