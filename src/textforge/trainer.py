"""Optimizers, the training loop with holdout selection, and checkpoints.

One root seed drives everything through fixed spawn keys: (0,) for parameter
init, (1, epoch[, source]) for batch shuffling. Shuffle streams are derived
per epoch rather than advanced across epochs, so a resumed run replays the
exact schedule of an uninterrupted one.

A checkpoint stores each fact once: the config snapshot, the history (one
record per epoch run), the vocabularies and labels, the last and the best
parameters, and the Adam moments. The rest is read from those: the seed and
the optimizer settings from the config, the last epoch from the history's
length, and the best epoch as the first with the highest score.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import binio
from .data_handler import VOCAB_NAMES, VocabBundle
from .errors import CorruptFile, EmptySplit, NoGradient, NonFiniteLoss
from .model_zoo import load_params
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
            shape = self.params[name].data.shape
            if not (isinstance(st, dict) and all(
                    isinstance(st.get(k), np.ndarray) and st[k].dtype == F32
                    and st[k].shape == shape for k in ("m", "v"))
                    and _typed(int)(st.get("t")) and st["t"] > 0):
                raise CorruptFile("checkpoint optimizer state for %r needs float32 m and v of "
                                  "shape %s and a positive int t" % (name, shape))
            moments[name] = [st["m"], st["v"], st["t"]]
        self._moments = moments


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
            "best_score": self.best_score if self.best_epoch >= 0 else None,
            "stopped_early": self.stopped_early,
            "history": [asdict(r) for r in self.history],
        }


def _snapshot_params(model):
    return {name: p.data.copy() for name, p in model.named_parameters().items()}


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
    best_epoch = -1
    best_score = float("-inf")
    best_params = _snapshot_params(model)
    stopped_early = False

    def out_of_patience(epoch):
        return cfg.patience > 0 and (epoch - best_epoch) >= cfg.patience

    if resume is not None:
        history = [EpochRecord(**rec) for rec in resume["history"]]
        # the loop keeps the first epoch of the highest score, as max picks it
        best_epoch = max(range(len(history)), key=lambda i: history[i].score)
        best_score = history[best_epoch].score
        # best_params too is checked now, not after the last epoch
        load_params(model, resume["best_params"])
        load_params(model, resume["params"])
        best_params = dict(resume["best_params"])
        opt.load_state(resume["optimizer"])
        # a run that had stopped early stays stopped, as it did uninterrupted
        stopped_early = out_of_patience(len(history) - 1)

    start_epoch = len(history)
    epochs = range(start_epoch, start_epoch if stopped_early else cfg.epochs)
    if resume is not None and not epochs and ckpt_path:
        # nothing is left to train: the resumed state is the checkpoint
        save_checkpoint(ckpt_path, checkpoint_payload(pipe, history, best_params))

    for epoch in epochs:
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
        if score > best_score:
            best_score = score
            best_epoch = epoch
            best_params = _snapshot_params(model)
        if ckpt_path:
            save_checkpoint(ckpt_path, checkpoint_payload(pipe, history, best_params))
        if out_of_patience(epoch):
            stopped_early = True
            break

    if best_epoch >= 0:
        load_params(model, best_params)
    return TrainResult(history, best_epoch, best_score, stopped_early)


def checkpoint_payload(pipe, history, best_params) -> dict:
    return {
        "config": pipe.config_text,
        "history": [asdict(rec) for rec in history],
        "vocabs": {name: getattr(pipe.vocabs, name).entries for name in VOCAB_NAMES},
        "labels": {"doc": pipe.doc_labels, "word": pipe.word_tags},
        "params": _snapshot_params(pipe.model),
        "best_params": best_params,
        "optimizer": pipe.optimizer.state_payload(),
    }


def save_checkpoint(path: str, payload: dict) -> None:
    binio.write_file(path, binio.pack_container(CKPT_MAGIC, CKPT_VERSION, payload))


def _typed(kind):
    return lambda value: isinstance(value, kind) and not isinstance(value, bool)


_number = _typed((int, float))

# EpochRecord field -> whether a loaded value is well formed; a score is
# finite, as the loop never keeps a NaN as its best
_RECORD_FIELDS = {
    "epoch": _typed(int), "train_loss": _number,
    "score": lambda v: _number(v) and abs(v) < math.inf,
    "metrics": lambda v: isinstance(v, dict) and all(map(_number, v.values())),
}

# checkpoint field -> whether a loaded value is well formed; parameter names
# and shapes are checked when they are loaded into a model (load_params).
# The history holds record i of epoch i for each epoch run, at least one.
_CKPT_FIELDS = {
    "config": _typed(str),
    "history": lambda v: isinstance(v, list) and len(v) > 0 and all(
        isinstance(rec, dict) and set(rec) == set(_RECORD_FIELDS)
        and all(ok(rec[name]) for name, ok in _RECORD_FIELDS.items())
        and rec["epoch"] == i for i, rec in enumerate(v)),
    "vocabs": _typed(dict),
    "labels": lambda v: isinstance(v, dict) and all(
        isinstance(v.get(k), list) and all_str(v[k]) for k in ("doc", "word")),
    "params": _typed(dict), "best_params": _typed(dict), "optimizer": _typed(dict),
}


class Checkpoint(dict):
    """A checked checkpoint payload: exactly the fields of _CKPT_FIELDS.
    vocabs is the VocabBundle whose Vocabularies checked its vocab tables, so
    restoring a pipeline from it hashes no table again."""

    vocabs: VocabBundle


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; CorruptFile unless every field is well formed."""
    payload = binio.read_container(path, CKPT_MAGIC, CKPT_VERSION)
    if not isinstance(payload, dict):
        raise CorruptFile("%s: not a checkpoint file" % path)
    for name, well_formed in _CKPT_FIELDS.items():
        if name not in payload or not well_formed(payload[name]):
            raise CorruptFile("%s: checkpoint field %r is missing or malformed" % (path, name))
    stray = sorted(set(payload) - set(_CKPT_FIELDS))
    if stray:
        raise CorruptFile("%s: checkpoint has unknown fields %s" % (path, stray))
    vocabs = {name: Vocabulary.from_table(payload["vocabs"].get(name)) for name in VOCAB_NAMES}
    if None in vocabs.values():
        raise CorruptFile("%s: checkpoint field 'vocabs' is missing or malformed" % path)
    ckpt = Checkpoint(payload)
    ckpt.vocabs = VocabBundle(**vocabs)
    return ckpt
