"""Wires a validated task config into a runnable pipeline.

A Pipeline owns the featurizer, vocabularies, datasets, model and optimizer,
and knows how to produce training batches, evaluate, and predict eagerly.
It can be built two ways: from a config plus data files (training), or from
a checkpoint alone (prediction/export, no data files needed).
"""

from dataclasses import dataclass
from typing import Optional

from . import components, data_handler, metrics, ops
from .data_handler import (FORMAT_DOC, FORMAT_JOINT, FORMAT_WORD, Dataset, VocabBundle,
                           interleave_multitask, make_batches, single_example_batch)
from .errors import EmptySplit, SchemaViolation
from .featurizer import Featurizer, FeaturizerSettings
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
        self.datasets = datasets  # single: {"train": ds, ...}; joint: {"train": [ds, ds], ...}

    @property
    def max_chars(self):
        return self.featurizer.settings.max_chars

    def _doc_index(self):
        return {label: i for i, label in enumerate(self.doc_labels)}

    def _tag_index(self):
        return {tag: i for i, tag in enumerate(self.word_tags)}

    def _label_kwargs(self):
        if self.task == components.DOC_TASK:
            return {"doc_label_index": self._doc_index()}
        if self.task == components.WORD_TASK:
            return {"tag_index": self._tag_index()}
        return {"doc_label_index": self._doc_index(), "tag_index": self._tag_index()}

    def _require_data(self):
        if self.datasets is None:
            raise EmptySplit("pipeline was restored without data files")

    # -- training interface ------------------------------------------------

    def train_batches(self, epoch: int):
        self._require_data()
        seed = self.settings.seed
        kwargs = self._label_kwargs()
        if self.task == components.JOINT_TASK:
            lists = []
            for k, ds in enumerate(self.datasets["train"]):
                lists.append(make_batches(
                    ds, self.settings.batch_size, self.vocabs, self.max_chars,
                    shuffle_seed=seed_sequence(seed, 1, epoch, k), task_id=k, **kwargs))
            return interleave_multitask(lists)
        ds = self.datasets["train"]
        return make_batches(ds, self.settings.batch_size, self.vocabs, self.max_chars,
                            shuffle_seed=seed_sequence(seed, 1, epoch), **kwargs)

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
        if self.task == components.DOC_TASK:
            batches = self._eval_batches(self.datasets["eval"], self._label_kwargs())
            golds, preds = self._collect_doc(self.model, batches)
            rep = metrics.classification_report(golds, preds, len(self.doc_labels))
            return rep.accuracy, {"accuracy": rep.accuracy, "macro_f1": rep.macro_f1}
        if self.task == components.WORD_TASK:
            batches = self._eval_batches(self.datasets["eval"], self._label_kwargs())
            golds, preds = self._collect_word(self.model, batches)
            rep = metrics.tagging_report(golds, preds, len(self.word_tags))
            return rep.macro_f1, {"token_accuracy": rep.token_accuracy,
                                  "macro_f1": rep.macro_f1}
        return self._evaluate_joint()

    def _evaluate_joint(self):
        kwargs = self._label_kwargs()
        doc_eval, word_eval = self.datasets["eval"]
        doc_model = self.model.tasks["doc"]
        word_model = self.model.tasks["word"]

        doc_batches = self._eval_batches(doc_eval, kwargs)
        golds, preds = self._collect_doc(doc_model, doc_batches)
        doc_rep = metrics.classification_report(golds, preds, len(self.doc_labels))

        word_batches = self._eval_batches(word_eval, kwargs)
        wgolds, wpreds = self._collect_word(word_model, word_batches)
        word_rep = metrics.tagging_report(wgolds, wpreds, len(self.word_tags))

        # frame accuracy over the first source, which carries both label kinds
        tg, tp = self._collect_word(word_model, doc_batches)
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
            "vocabs": {
                "token": list(self.vocabs.token.entries),
                "char": list(self.vocabs.char.entries),
                "gaz": list(self.vocabs.gaz.entries),
                "cap": list(self.vocabs.cap.entries),
            },
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


def _refeaturize(datasets, fz: Featurizer):
    for ds in datasets:
        for ex in ds.examples:
            ex.feats = fz.featurize(ex.raw_text, ex.entries)


def _load_single(data_cfg, fmt, fz):
    p = data_cfg.params
    train = data_handler.load_tsv(p["train_path"], fmt, fz, "train")
    eval_ds = data_handler.load_tsv(p["eval_path"], fmt, fz, "eval")
    test = data_handler.load_tsv(p["test_path"], fmt, fz, "test") if p["test_path"] else None
    return train, eval_ds, test


def instantiate_task(config: TaskConfig, seed_override: Optional[int] = None) -> Pipeline:
    """Construct the full pipeline for a config, loading and vectorizing data."""
    root = config.root
    task = config.task_kind

    if seed_override is not None:
        root.child("trainer").params["seed"] = int(seed_override)

    fz = _build_featurizer(root.child("featurizer"))
    data_cfg = root.child("data")
    model_cfg = root.child("model")

    tparams = root.child("trainer").params
    settings = Settings(epochs=tparams["epochs"], patience=tparams["patience"],
                        seed=tparams["seed"], batch_size=data_cfg.params["batch_size"])
    eparams = root.child("export").params
    export = ExportSettings(out_path=eparams["out_path"], bake_vocab=eparams["bake_vocab"])
    min_freq = data_cfg.params["min_freq"]
    seed = settings.seed

    if task == components.JOINT_TASK:
        if data_cfg.name != "tsv_pair":
            raise SchemaViolation("joint task needs the tsv_pair data handler")
        p = data_cfg.params
        if len(p["train_paths"]) != 2 or len(p["eval_paths"]) != 2:
            raise SchemaViolation("joint task declares exactly two data sources")
        if p["test_paths"] and len(p["test_paths"]) != 2:
            raise SchemaViolation("joint test_paths must list two files when present")
        trains = [data_handler.load_tsv(path, FORMAT_JOINT, fz, "train")
                  for path in p["train_paths"]]
        evals = [data_handler.load_tsv(path, FORMAT_JOINT, fz, "eval")
                 for path in p["eval_paths"]]
        tests = [data_handler.load_tsv(path, FORMAT_JOINT, fz, "test")
                 for path in p["test_paths"]] if p["test_paths"] else None

        union = Dataset(trains[0].examples + trains[1].examples, "train")
        vocabs = VocabBundle(
            token=data_handler.build_vocab(union, min_freq),
            char=data_handler.build_char_vocab(union),
            gaz=data_handler.build_gaz_vocab(union),
            cap=data_handler.cap_vocabulary(),
        )
        fz = fz.with_alphabet(vocabs.char)
        _refeaturize(trains + evals + (tests or []), fz)
        doc_labels = data_handler.doc_label_list(union)
        word_tags = data_handler.word_tag_list(union)

        rng = derive_rng(seed, 0)
        model = components.build_joint_model(model_cfg, vocabs, len(doc_labels),
                                             len(word_tags), rng)
        datasets = {"train": trains, "eval": evals, "test": tests}
    else:
        if data_cfg.name != "tsv":
            raise SchemaViolation("task %s needs the tsv data handler" % task)
        fmt = FORMAT_DOC if task == components.DOC_TASK else FORMAT_WORD
        train_ds, eval_ds, test_ds = _load_single(data_cfg, fmt, fz)
        vocabs = VocabBundle(
            token=data_handler.build_vocab(train_ds, min_freq),
            char=data_handler.build_char_vocab(train_ds),
            gaz=data_handler.build_gaz_vocab(train_ds),
            cap=data_handler.cap_vocabulary(),
        )
        fz = fz.with_alphabet(vocabs.char)
        _refeaturize([ds for ds in (train_ds, eval_ds, test_ds) if ds is not None], fz)
        doc_labels = word_tags = None
        rng = derive_rng(seed, 0)
        if task == components.DOC_TASK:
            doc_labels = data_handler.doc_label_list(train_ds)
            model = components.build_single_task_model(model_cfg, task, vocabs,
                                                       len(doc_labels), rng)
        else:
            word_tags = data_handler.word_tag_list(train_ds)
            model = components.build_single_task_model(model_cfg, task, vocabs,
                                                       len(word_tags), rng)
        datasets = {"train": train_ds, "eval": eval_ds, "test": test_ds}

    optimizer = components.build_optimizer(root.child("optimizer"), model.parameters())
    return Pipeline(config, fz, vocabs, doc_labels, word_tags, model, optimizer,
                    settings, export, datasets)


def restore_pipeline(payload: dict, use_best: bool = True) -> Pipeline:
    """Rebuild a pipeline from a checkpoint alone; no data files are read.

    use_best selects the best-epoch parameters (for prediction and export);
    pass False to get the last-epoch state instead.
    """
    config = parse_task_config(payload["config"])
    root = config.root
    task = config.task_kind

    fz = _build_featurizer(root.child("featurizer"))
    vocabs = VocabBundle(
        token=Vocabulary(payload["vocabs"]["token"]),
        char=Vocabulary(payload["vocabs"]["char"]),
        gaz=Vocabulary(payload["vocabs"]["gaz"]),
        cap=Vocabulary(payload["vocabs"]["cap"]),
    )
    fz = fz.with_alphabet(vocabs.char)
    doc_labels = payload["labels"]["doc"]
    word_tags = payload["labels"]["word"]

    rng = derive_rng(int(payload["seed"]), 0)
    model_cfg = root.child("model")
    if task == components.JOINT_TASK:
        model = components.build_joint_model(model_cfg, vocabs, len(doc_labels),
                                             len(word_tags), rng)
    elif task == components.DOC_TASK:
        model = components.build_single_task_model(model_cfg, task, vocabs,
                                                   len(doc_labels), rng)
    else:
        model = components.build_single_task_model(model_cfg, task, vocabs,
                                                   len(word_tags), rng)

    saved = payload["best_params"] if use_best and payload["best_epoch"] >= 0 \
        else payload["params"]
    for name, param in model.named_parameters().items():
        param.data = saved[name]

    tparams = root.child("trainer").params
    data_params = root.child("data").params
    settings = Settings(epochs=tparams["epochs"], patience=tparams["patience"],
                        seed=int(payload["seed"]), batch_size=data_params["batch_size"])
    eparams = root.child("export").params
    export = ExportSettings(out_path=eparams["out_path"], bake_vocab=eparams["bake_vocab"])

    optimizer = components.build_optimizer(root.child("optimizer"), model.parameters())
    return Pipeline(config, fz, vocabs, doc_labels, word_tags, model, optimizer,
                    settings, export, datasets=None)
