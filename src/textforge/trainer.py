"""Optimizers, the training loop with holdout selection, and checkpoints.

Every random draw comes from a root seed and a fixed spawn key:
- (0,) parameter init, under the config seed
- (1, epoch[, source]) batch shuffling, under the config seed
- (2,) the texts verify_equivalence checks, under the seed it is given (the
  config seed in `textforge export`)
- (3,) the texts `textforge bench` times, under seed 0
Shuffle streams are derived per epoch rather than advanced across epochs, so
a resumed run replays the exact schedule of an uninterrupted one.

A checkpoint stores each fact once: the config snapshot, the history (one
record per epoch run), the vocabularies and labels, the last and the best
parameters, and the Adam moments. The rest is read from those: the seed and
the optimizer settings from the config, the last epoch from the history's
length, and the best epoch and the early stop by best_epoch and
out_of_patience, the one statement of each rule.
"""

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import binio
from .data_handler import VOCAB_NAMES, VocabBundle
from .errors import (CorruptFile, EmptySplit, NoGradient, NonFiniteLoss, SchemaViolation,
                     TextForgeError)
from .model_zoo import load_params
from .registry import JOINT_HEADS, JOINT_TASK, ComponentConfig, parse_task_config
from .vocab import Vocabulary, all_str

F32 = np.float32

CKPT_MAGIC = b"TXFG"
CKPT_VERSION = 5


def seed_sequence(seed: int, *key):
    return np.random.SeedSequence(seed, spawn_key=key)


def derive_rng(seed: int, *key) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_sequence(seed, *key)))


class SGD:
    """Plain gradient descent over a name -> Parameter mapping, as a model's
    named_parameters() gives it. It keeps no state between steps."""

    def __init__(self, params, lr=0.1):
        self.params = dict(params)
        self.lr = float(lr)

    def _live(self):
        live = [(name, p) for name, p in self.params.items() if p.grad is not None]
        if not live:
            raise NoGradient("no parameter carries a gradient")
        return live

    def step(self):
        live = self._live()
        lr = F32(self.lr)
        for _, p in live:
            p.data = p.data - lr * p.grad
        for _, p in live:
            p.grad = None

    def state_payload(self):
        return {}

    def load_state(self, payload):
        if payload:
            raise CorruptFile("checkpoint optimizer state holds moments, but SGD keeps none")


class Adam:
    """Adam over a name -> Parameter mapping; its moments are kept and saved
    under the same names. Its settings are the config's, never the file's."""

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._moments = {}  # param name -> [m, v, t]

    _live = SGD._live

    def step(self):
        live = self._live()
        lr = F32(self.lr)
        b1 = F32(self.beta1)
        b2 = F32(self.beta2)
        one = F32(1.0)
        eps = F32(self.eps)
        for name, p in live:
            st = self._moments.get(name)
            if st is None:
                st = [np.zeros_like(p.data), np.zeros_like(p.data), 0]
                self._moments[name] = st
            g = p.grad
            st[2] += 1
            st[0] = b1 * st[0] + (one - b1) * g
            st[1] = b2 * st[1] + (one - b2) * (g * g)
            m_hat = st[0] / F32(1.0 - self.beta1 ** st[2])
            v_hat = st[1] / F32(1.0 - self.beta2 ** st[2])
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)
        for _, p in live:
            p.grad = None

    def state_payload(self):
        return {name: {"m": st[0], "v": st[1], "t": st[2]}
                for name, st in self._moments.items()}

    def load_state(self, payload):
        moments = {}
        for name, st in payload.items():
            if name not in self.params:
                raise CorruptFile("checkpoint optimizer state names unknown parameter %r" % (name,))
            what = "checkpoint optimizer state for %r" % (name,)
            binio.check_fields(st, _MOMENT_FIELDS, what, CorruptFile)
            if not st["m"].shape == st["v"].shape == self.params[name].data.shape:
                raise CorruptFile("%s: m and v do not have the parameter's shape" % what)
            moments[name] = [st["m"], st["v"], st["t"]]
        self._moments = moments


# Adam.state_payload's fields for a parameter -> whether a loaded value is well formed
_MOMENT_FIELDS = {"m": binio.finite_array, "v": binio.finite_array,
                  "t": lambda v: type(v) is int and v > 0}


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    score: float
    metrics: dict = field(default_factory=dict)


@dataclass
class TrainResult:
    history: list
    best_epoch: int
    best_score: float
    stopped_early: bool

    def payload(self):
        return {
            "epochs_run": len(self.history),
            "best_epoch": self.best_epoch,
            "best_score": self.best_score,
            "stopped_early": self.stopped_early,
            "history": [asdict(r) for r in self.history],
        }


def _snapshot_params(model):
    return {name: p.data.copy() for name, p in model.named_parameters().items()}


def best_epoch(history) -> int:
    """The selected epoch: the first of the highest score in a non-empty history."""
    return max(range(len(history)), key=lambda i: history[i].score)


def out_of_patience(history, patience: int) -> bool:
    """Whether a run stops after the epochs in history: more than patience
    epochs since the best one, counting it. Patience 0 never stops a run."""
    return bool(history) and 0 < patience < len(history) - best_epoch(history)


def train(pipe, ckpt_path: str = "", resume: Optional[dict] = None, echo=None) -> TrainResult:
    """Run the training loop; the pipeline supplies batches and evaluation.

    Keeps the best-scoring epoch's parameters and applies them to the model
    before returning. Checkpoints (when a path is given) store the current
    parameters, so resuming reproduces the uninterrupted schedule exactly.
    """
    model = pipe.model
    opt = pipe.optimizer
    cfg = pipe.settings

    history = []
    best_params = None  # every run sets it: from resume, or at its first epoch
    if resume is not None:
        history = [EpochRecord(**rec) for rec in resume["history"]]
        # best_params too is checked now, not after the last epoch
        load_params(model, resume["best_params"])
        load_params(model, resume["params"])
        best_params = dict(resume["best_params"])
        opt.load_state(resume["optimizer"])

    def running():  # a resumed run that had stopped early stays stopped
        return len(history) < cfg.epochs and not out_of_patience(history, cfg.patience)

    if resume is not None and ckpt_path and not running():
        # nothing is left to train: the resumed state is the checkpoint
        save_checkpoint(ckpt_path, checkpoint_payload(pipe, history, best_params))

    while running():
        epoch = len(history)
        batches = pipe.train_batches(epoch)
        if not batches:
            raise EmptySplit("no training batches")
        total = 0.0
        for index, batch in enumerate(batches):
            loss = pipe.train_loss(batch)
            value = float(loss.data)
            # checked before backward, so a bad batch never updates parameters
            if not np.isfinite(value):
                raise NonFiniteLoss("epoch %d batch %d: training loss is %r"
                                    % (epoch, index, value))
            loss.backward()
            opt.step()
            total += value
        score, metrics = pipe.evaluate()
        record = EpochRecord(epoch, total / len(batches), score, metrics)
        history.append(record)
        if echo:
            shown = " ".join("%s=%.4f" % (k, v) for k, v in metrics.items())
            echo("epoch %d: train_loss=%.6f score=%.4f %s" % (epoch, record.train_loss, score, shown))
        if best_epoch(history) == epoch:
            best_params = _snapshot_params(model)
        if ckpt_path:
            save_checkpoint(ckpt_path, checkpoint_payload(pipe, history, best_params))

    load_params(model, best_params)
    best = best_epoch(history)
    return TrainResult(history, best, history[best].score, out_of_patience(history, cfg.patience))


def checkpoint_payload(pipe, history, best_params) -> dict:
    return {
        "config": pipe.config_text,
        "history": [asdict(rec) for rec in history],
        "vocabs": {name: getattr(pipe.vocabs, name).entries for name in VOCAB_NAMES},
        "labels": pipe.labels,
        "params": _snapshot_params(pipe.model),
        "best_params": best_params,
        "optimizer": pipe.optimizer.state_payload(),
    }


def save_checkpoint(path: str, payload: dict) -> None:
    binio.write_file(path, binio.pack_container(CKPT_MAGIC, CKPT_VERSION, payload))


# EpochRecord field -> whether a loaded value is well formed; every number is
# finite, as a run stops at a non-finite loss and a metric is a ratio of counts
_RECORD_FIELDS = {
    "epoch": lambda v: type(v) is int,
    "train_loss": binio.finite_number, "score": binio.finite_number,
    "metrics": lambda v: isinstance(v, dict) and all(map(binio.finite_number, v.values())),
}

# checkpoint field -> whether a loaded value is well formed; parameter names
# and shapes are checked when they are loaded into a model (load_params).
# The history holds record i of epoch i for each epoch run, at least one.
_CKPT_FIELDS = {
    "config": str,
    "history": lambda v: isinstance(v, list) and len(v) > 0 and all(
        binio.check_fields(rec, _RECORD_FIELDS, "record %d" % i, CorruptFile)
        and rec["epoch"] == i for i, rec in enumerate(v)),
    "vocabs": lambda v: isinstance(v, dict) and set(v) == set(VOCAB_NAMES),
    "labels": lambda v: isinstance(v, dict) and set(v) == {"doc", "word"} and all(
        isinstance(names, list) and all_str(names) and len(set(names)) == len(names)
        for names in v.values()),
    "params": binio.finite_arrays, "best_params": binio.finite_arrays, "optimizer": dict,
}


class Checkpoint(dict):
    """A checked checkpoint payload: exactly the fields of _CKPT_FIELDS.
    config is its parsed config snapshot, and vocabs the VocabBundle whose
    Vocabularies checked its vocab tables, so restoring a pipeline from it
    parses and hashes nothing again."""

    config: ComponentConfig
    vocabs: VocabBundle


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; CorruptFile unless every field is well formed and
    it holds labels of exactly the kinds its task predicts, and
    SchemaViolation if its config snapshot does not parse."""
    payload = binio.read_container(path, CKPT_MAGIC, CKPT_VERSION)
    what = "%s: checkpoint" % path
    binio.check_fields(payload, _CKPT_FIELDS, what, CorruptFile)
    vocabs = {name: Vocabulary.from_table(payload["vocabs"][name]) for name in VOCAB_NAMES}
    if None in vocabs.values():
        raise CorruptFile("%s field 'vocabs' is missing or malformed" % what)
    try:
        config = parse_task_config(payload["config"])
    except TextForgeError as exc:
        raise SchemaViolation("%s: the checkpoint's config snapshot is refused (%s); retrain "
                              "the model" % (path, exc)) from exc
    # a task has labels of the kind it predicts, the joint task of both, and
    # [] for a kind it does not
    task = config.name
    kinds = sorted(JOINT_HEADS.values()) if task == JOINT_TASK else [JOINT_HEADS[task]]
    if sorted(kind for kind, names in payload["labels"].items() if names) != kinds:
        raise CorruptFile("%s field 'labels' must name labels of the kinds %s alone, those "
                          "task %s predicts" % (what, kinds, task))
    ckpt = Checkpoint(payload)
    ckpt.config = config
    ckpt.vocabs = VocabBundle(**vocabs)
    return ckpt
