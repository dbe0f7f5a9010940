"""Optimizers, the training loop with holdout selection, and checkpoints.

One root seed drives everything through fixed spawn keys: (0,) for parameter
init, (1, epoch[, source]) for batch shuffling. Shuffle streams are derived
per epoch rather than advanced across epochs, so a resumed run replays the
exact schedule of an uninterrupted one.
"""

from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import binio
from .data_handler import VOCAB_NAMES
from .errors import CorruptFile, EmptySplit, NoGradient, NonFiniteLoss
from .model_zoo import load_params
from .vocab import all_str, is_table

F32 = np.float32

CKPT_MAGIC = b"TXFG"
CKPT_VERSION = 1


def seed_sequence(seed: int, *key):
    return np.random.SeedSequence(seed, spawn_key=key)


def derive_rng(seed: int, *key) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_sequence(seed, *key)))


class SGD:
    kind = "sgd"

    def __init__(self, params, lr=0.1):
        self.params = list(params)
        self.lr = float(lr)

    def _live(self):
        live = [p for p in self.params if p.grad is not None]
        if not live:
            raise NoGradient("no parameter carries a gradient")
        return live

    def step(self):
        live = self._live()
        lr = F32(self.lr)
        for p in live:
            p.tensor.data = p.data - lr * p.grad
        for p in live:
            p.grad = None

    def state_payload(self):
        return {"kind": self.kind, "lr": self.lr, "state": {}}

    def load_state(self, payload):
        (self.lr,) = _saved_numbers(payload, ("lr",))


class Adam:
    kind = "adam"

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
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
        for p in live:
            st = self._moments.get(p.name)
            if st is None:
                st = [np.zeros_like(p.data), np.zeros_like(p.data), 0]
                self._moments[p.name] = st
            g = p.grad
            st[2] += 1
            st[0] = b1 * st[0] + (one - b1) * g
            st[1] = b2 * st[1] + (one - b2) * (g * g)
            m_hat = st[0] / F32(1.0 - self.beta1 ** st[2])
            v_hat = st[1] / F32(1.0 - self.beta2 ** st[2])
            p.tensor.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)
        for p in live:
            p.grad = None

    def state_payload(self):
        state = {name: {"m": st[0], "v": st[1], "t": st[2]}
                 for name, st in self._moments.items()}
        return {"kind": self.kind, "lr": self.lr, "beta1": self.beta1,
                "beta2": self.beta2, "eps": self.eps, "state": state}

    def load_state(self, payload):
        numbers = _saved_numbers(payload, ("lr", "beta1", "beta2", "eps"))
        state = payload.get("state")
        if not isinstance(state, dict):
            raise CorruptFile("checkpoint optimizer 'state' is not a mapping")
        params = {p.name: p for p in self.params}
        moments = {}
        for name, st in state.items():
            if name not in params:
                raise CorruptFile("checkpoint optimizer state names unknown parameter %r" % (name,))
            shape = params[name].data.shape
            if not (isinstance(st, dict) and all(
                    isinstance(st.get(k), np.ndarray) and st[k].dtype == F32
                    and st[k].shape == shape for k in ("m", "v"))
                    and _typed(int)(st.get("t")) and st["t"] > 0):
                raise CorruptFile("checkpoint optimizer state for %r needs float32 m and v of "
                                  "shape %s and a positive int t" % (name, shape))
            moments[name] = [st["m"], st["v"], st["t"]]
        self.lr, self.beta1, self.beta2, self.eps = numbers
        self._moments = moments


def _saved_numbers(payload, names):
    """The named hyperparameters of a saved optimizer state, as floats."""
    for name in names:
        if not _typed((int, float))(payload.get(name)):
            raise CorruptFile("checkpoint optimizer %r is missing or not a number" % name)
    return [float(payload[name]) for name in names]


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
    start_epoch = 0
    stopped_early = False

    if resume is not None:
        start_epoch = resume["epoch"] + 1
        best_epoch = resume["best_epoch"]
        best_score = resume["best_score"]
        history = [EpochRecord(**rec) for rec in resume["history"]]
        # best_params too is checked now, not after the last epoch
        load_params(model, resume["best_params"])
        load_params(model, resume["params"])
        best_params = dict(resume["best_params"])
        opt.load_state(resume["optimizer"])

    for epoch in range(start_epoch, cfg.epochs):
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
            save_checkpoint(ckpt_path, checkpoint_payload(
                pipe, opt, epoch, best_epoch, best_score, history, best_params))
        if cfg.patience > 0 and (epoch - best_epoch) >= cfg.patience:
            stopped_early = True
            break

    if best_epoch >= 0:
        load_params(model, best_params)
    return TrainResult(history, best_epoch, best_score, stopped_early)


def checkpoint_payload(pipe, opt, epoch, best_epoch, best_score, history, best_params) -> dict:
    meta = pipe.snapshot_meta()
    return {
        "container": "checkpoint",
        "task": meta["task"],
        "config": meta["config"],
        "seed": pipe.settings.seed,
        "epoch": epoch,
        "best_epoch": best_epoch,
        "best_score": best_score,
        "history": [asdict(rec) for rec in history],
        "vocabs": meta["vocabs"],
        "labels": meta["labels"],
        "params": _snapshot_params(pipe.model),
        "best_params": best_params,
        "optimizer": opt.state_payload(),
    }


def save_checkpoint(path: str, payload: dict) -> None:
    binio.write_container(path, CKPT_MAGIC, CKPT_VERSION, payload)


def _typed(kind):
    return lambda value: isinstance(value, kind) and not isinstance(value, bool)


# checkpoint field -> whether a loaded value is well formed; parameter names
# and shapes are checked when they are loaded into a model (load_params)
_CKPT_FIELDS = {
    "config": _typed(str), "seed": _typed(int), "epoch": _typed(int), "best_epoch": _typed(int),
    "best_score": _typed((int, float)),
    "history": lambda v: isinstance(v, list) and all(
        isinstance(rec, dict) and set(rec) == {f.name for f in fields(EpochRecord)}
        for rec in v),
    "vocabs": lambda v: isinstance(v, dict) and all(is_table(v.get(n)) for n in VOCAB_NAMES),
    "labels": lambda v: isinstance(v, dict) and all(
        isinstance(v.get(k), list) and all_str(v[k]) for k in ("doc", "word")),
    "params": _typed(dict), "best_params": _typed(dict), "optimizer": _typed(dict),
}


def load_checkpoint(path: str) -> dict:
    """Read a checkpoint; CorruptFile unless every field is well formed."""
    payload = binio.read_container(path, CKPT_MAGIC, CKPT_VERSION)
    if not isinstance(payload, dict) or payload.get("container") != "checkpoint":
        raise CorruptFile("%s: not a checkpoint file" % path)
    for name, well_formed in _CKPT_FIELDS.items():
        if name not in payload or not well_formed(payload[name]):
            raise CorruptFile("%s: checkpoint field %r is missing or malformed" % (path, name))
    return payload
