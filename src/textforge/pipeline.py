"""Wires a validated task config into a runnable pipeline.

A Pipeline owns the featurizer, vocabularies, datasets, model and optimizer,
and knows how to produce training batches, predict eagerly, and evaluate
from confusion counts that add up over the eval batches.
It is built from a config plus data files (instantiate_task, for training)
or from a checkpoint alone (restore_pipeline, for prediction and export).
Both differ only in where the vocabularies and labels come from, and then
go through one assembler that builds the model, settings and optimizer from
the config, the seed included.

Every task reads its data as per-split lists of sources: one TSV per split
for doc classification and word tagging, two for the joint task, whose
heads train on one source each.
"""

from dataclasses import dataclass
from typing import Optional

from . import components, data_handler, metrics, ops
from .data_handler import (FORMAT_DOC, FORMAT_JOINT, FORMAT_WORD, Dataset, VocabBundle,
                           batch_examples, interleave_multitask, make_batches,
                           single_example_batch)
from .errors import EmptySplit, SchemaViolation
from .featurizer import Featurizer, FeaturizerSettings
from .model_zoo import load_params
from .registry import ComponentConfig, parse_task_config, serialize_task_config
from .trainer import Checkpoint, derive_rng, seed_sequence


@dataclass
class Settings:
    epochs: int
    patience: int
    seed: int
    batch_size: int


class Pipeline:
    def __init__(self, config: ComponentConfig, featurizer: Featurizer, vocabs: VocabBundle,
                 doc_labels, word_tags, model, optimizer, settings: Settings, datasets=None):
        self.config = config
        self.config_text = serialize_task_config(config)
        self.task = config.name
        self.featurizer = featurizer
        self.vocabs = vocabs
        self.doc_labels = doc_labels or []
        self.word_tags = word_tags or []
        self.model = model
        self.optimizer = optimizer
        self.settings = settings
        # split -> list of Datasets, one per source ("test" may be empty);
        # None when restored from a checkpoint
        self.datasets = datasets
        self._vectors = None  # "train"/"eval" -> one padded Batch per source
        # width of the char-id block in its batches; 0 when the model embeds no chars
        embeds_chars = config.child("model").child("embedding").params["char_dim"]
        self.char_width = self.max_chars if embeds_chars else 0

    @property
    def max_chars(self):
        return self.featurizer.settings.max_chars

    def _vectorized(self, split):
        """One padded Batch per source of the train or eval split.

        Both splits are vectorized together, once, the first time either is
        asked for; so an eval label that train lacks fails before training.
        """
        if self.datasets is None:
            raise EmptySplit("pipeline was restored without data files")
        if self._vectors is None:
            for ds in self.datasets["eval"]:
                if not ds.examples:
                    raise EmptySplit("%s split is empty" % ds.split)
            doc_index = (None if self.task == components.WORD_TASK
                         else {label: i for i, label in enumerate(self.doc_labels)})
            tag_index = (None if self.task == components.DOC_TASK
                         else {tag: i for i, tag in enumerate(self.word_tags)})
            self._vectors = {
                name: [batch_examples(ds.examples, self.vocabs, self.char_width,
                                      doc_index, tag_index) for ds in self.datasets[name]]
                for name in ("train", "eval")}
        return self._vectors[split]

    # -- training interface ------------------------------------------------

    def train_batches(self, epoch: int):
        sources = self._vectorized("train")
        lists = []
        for k, full in enumerate(sources):
            # one source shuffles under (1, epoch), several under (1, epoch, k)
            key = (1, epoch, k) if len(sources) > 1 else (1, epoch)
            lists.append(make_batches(full, self.settings.batch_size,
                                      seed_sequence(self.settings.seed, *key)))
        return interleave_multitask(lists) if len(lists) > 1 else lists[0]

    def train_loss(self, batch):
        if self.task == components.JOINT_TASK:
            name, out = self.model.forward(batch, compute_loss=True)
            return ops.mul_scalar(out.loss, self.model.loss_weights[name])
        return self.model.forward(batch, compute_loss=True).loss

    # -- evaluation ----------------------------------------------------------

    def evaluate(self):
        """Score the current model on the eval split(s).

        Returns (selection score, metric dict). Doc tasks select on accuracy,
        word tasks on macro F1 of token labels, the joint task on their mean.
        """
        batches = [make_batches(full, self.settings.batch_size)
                   for full in self._vectorized("eval")]
        n_labels, n_tags = len(self.doc_labels), len(self.word_tags)
        if self.task == components.DOC_TASK:
            acc, f1 = metrics.scores(_doc_counts(_outputs(self.model, batches[0]), n_labels))
            return acc, {"accuracy": acc, "macro_f1": f1}
        if self.task == components.WORD_TASK:
            acc, f1 = metrics.scores(_tag_counts(_outputs(self.model, batches[0]), n_tags))
            return f1, {"token_accuracy": acc, "macro_f1": f1}

        # the first source carries both label kinds: one trunk pass per batch
        # gives the doc predictions and the tags for frame accuracy
        both = [(batch, self.model.forward_all(batch)) for batch in batches[0]]
        doc_acc, _ = metrics.scores(
            _doc_counts(((batch, outs["doc"]) for batch, outs in both), n_labels))
        hits = sum(metrics.frame_hits(batch.doc_labels, outs["doc"].preds, batch.word_labels,
                                      outs["word"].preds, batch.mask) for batch, outs in both)
        frame = hits / sum(batch.size for batch, _ in both)
        _, word_f1 = metrics.scores(
            _tag_counts(_outputs(self.model.tasks["word"], batches[1]), n_tags))

        score = (doc_acc + word_f1) / 2.0
        return score, {"doc_accuracy": doc_acc, "word_macro_f1": word_f1,
                       "frame_accuracy": frame}

    # -- prediction -----------------------------------------------------------

    def labels(self, task) -> list:
        """The label names of a doc or word head."""
        return self.doc_labels if task == components.DOC_TASK else self.word_tags

    def predict(self, feats, task=None) -> dict:
        """Eager single-example prediction from a FeaturizedExample.

        The joint model runs its shared trunk once and gives the doc head's
        label and score with the word head's tags; given a task, it predicts
        that task's head alone, as the head's exported graph does. A single
        task model ignores task.
        """
        batch = single_example_batch(feats, self.vocabs, self.char_width)
        if self.task != components.JOINT_TASK:
            return self._json(self.task, self.model.forward(batch, compute_loss=False))
        if task is not None:
            head = self.model.tasks[components.JOINT_HEADS[task]]
            return self._json(task, head.forward(batch, compute_loss=False))
        outs = self.model.forward_all(batch)
        result = self._json(components.DOC_TASK, outs["doc"])
        result["tags"] = self._json(components.WORD_TASK, outs["word"])["tags"]
        return result

    def _json(self, task, out) -> dict:
        return prediction_json(task, self.labels(task), out.preds[0], out.scores[0])


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


def _outputs(model, batches):
    """(batch, output) pairs of a single-task model over batches."""
    return ((batch, model.forward(batch, compute_loss=False)) for batch in batches)


def _doc_counts(outputs, n_classes):
    """The confusion counts of doc labels over (batch, head output) pairs."""
    return sum(metrics.confusion(batch.doc_labels, out.preds, n_classes)
               for batch, out in outputs)


def _tag_counts(outputs, n_classes):
    """The confusion counts of the tags at unmasked positions over (batch,
    head output) pairs."""
    return sum(metrics.confusion(batch.word_labels[batch.mask > 0],
                                 out.preds[batch.mask > 0], n_classes)
               for batch, out in outputs)


def _build_featurizer(cfg) -> Featurizer:
    settings = FeaturizerSettings(lowercase=cfg.params["lowercase"],
                                  max_chars=cfg.params["max_chars"])
    return Featurizer(settings)


def _load_data(config: ComponentConfig):
    """Load every split as a list of sources: two for joint, one otherwise.

    Vocabularies and labels come from the union of the train sources (for a
    single task, the train set itself). Returns (vocabs, doc_labels,
    word_tags, datasets); a task has no labels of the kind it does not use.
    """
    task = config.name
    data_cfg = config.child("data")
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

    fz = _build_featurizer(config.child("featurizer"))
    datasets = {split: [data_handler.load_tsv(path, fmt, fz, split) for path in sources]
                for split, sources in paths.items()}
    union = Dataset([ex for ds in datasets["train"] for ex in ds.examples], "train")
    vocabs = VocabBundle(
        token=data_handler.build_vocab(union, p["min_freq"]),
        char=data_handler.build_char_vocab(union),
        gaz=data_handler.build_gaz_vocab(union),
        cap=data_handler.cap_vocabulary(),
    )
    doc_labels = data_handler.doc_label_list(union) if task != components.WORD_TASK else None
    word_tags = data_handler.word_tag_list(union) if task != components.DOC_TASK else None
    return vocabs, doc_labels, word_tags, datasets


def _assemble(config: ComponentConfig, vocabs: VocabBundle, doc_labels, word_tags,
              datasets=None) -> Pipeline:
    """The pipeline for a config and its vocabularies and labels.

    Builds the featurizer, the model (initialized from the config's seed),
    the settings and the optimizer; both instantiate_task and
    restore_pipeline end here.
    """
    tparams = config.child("trainer").params
    fz = _build_featurizer(config.child("featurizer"))
    model = components.build_model(config.child("model"), config.name, vocabs,
                                   doc_labels, word_tags, derive_rng(tparams["seed"], 0))
    settings = Settings(epochs=tparams["epochs"], patience=tparams["patience"],
                        seed=tparams["seed"], batch_size=config.child("data").params["batch_size"])
    optimizer = components.build_optimizer(config.child("optimizer"), model.named_parameters())
    return Pipeline(config, fz, vocabs, doc_labels, word_tags, model, optimizer,
                    settings, datasets)


def instantiate_task(config: ComponentConfig, seed_override: Optional[int] = None) -> Pipeline:
    """Construct the full pipeline for a config, loading and featurizing data;
    ids are looked up when training first asks for batches."""
    if seed_override is not None:
        config.child("trainer").params["seed"] = int(seed_override)
    vocabs, doc_labels, word_tags, datasets = _load_data(config)
    return _assemble(config, vocabs, doc_labels, word_tags, datasets)


def restore_pipeline(payload: Checkpoint, use_best: bool = True) -> Pipeline:
    """Rebuild a pipeline from a loaded checkpoint alone; no data files are read.

    use_best selects the best-epoch parameters (for prediction and export);
    pass False to get the last-epoch state instead.
    """
    config = parse_task_config(payload["config"])
    pipe = _assemble(config, payload.vocabs, payload["labels"]["doc"],
                     payload["labels"]["word"])
    load_params(pipe.model, payload["best_params" if use_best else "params"])
    return pipe
