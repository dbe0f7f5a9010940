"""Differentiable operations building the autodiff tape.

Forward arithmetic is delegated to kernels so the exported-graph interpreter
computes identical values. Backward closures return one gradient per parent
(None for inputs that do not need one). While exporter.export_model traces
a forward pass, each op that has a graph opcode, and reshape, also reports
its opcode, output and inputs to trace_hook.

The kernel-backed ops keep their kernel's cache and a tape node only while
recording; inside inference() they make the graph runtime's own kernel call
and return parentless tensors.
"""

from contextlib import contextmanager
from functools import partial

import numpy as np

from . import kernels
from .errors import ShapeMismatch
from .tensor import Tensor

F32 = np.float32

trace_hook = None  # called as trace_hook(opcode, out, inputs, lengths or None, attrs)
recording = True  # False inside inference(): kernel ops build no tape


@contextmanager
def inference():
    """Turn recording off for the block, and back to what it was on exit."""
    global recording
    was, recording = recording, False
    try:
        yield
    finally:
        recording = was


def _report(opcode, out, inputs, lengths=None, **attrs):
    if trace_hook is not None:
        trace_hook(opcode, out, inputs, lengths, attrs)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis; x may carry leading batch dims."""
    out_data = kernels.linear(x.data, w.data, b.data)
    k = x.shape[-1]
    m = w.shape[1]

    def backward(g):
        g2 = g.reshape(-1, m)
        x2 = x.data.reshape(-1, k)
        return (g2 @ w.data.T).reshape(x.data.shape), x2.T @ g2, g2.sum(axis=0)

    return _report("MatMulAdd", Tensor(out_data, (x, w, b), backward), (x, w, b))


def _binary(a, b, fwd, da, db):
    if a.shape != b.shape:
        raise ShapeMismatch("elementwise op on shapes %s vs %s" % (a.shape, b.shape))
    out_data = fwd(a.data, b.data)

    def backward(g):
        return da(g, a.data, b.data), db(g, a.data, b.data)

    return Tensor(out_data, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def backward(g):
        return (g * (1 - out_data * out_data),)

    return Tensor(out_data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    out_data = kernels.sigmoid(x.data)

    def backward(g):
        return (g * out_data * (1 - out_data),)

    return Tensor(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    out_data = kernels.relu(x.data)

    def backward(g):
        return (g * (x.data > 0),)

    return _report("Relu", Tensor(out_data, (x,), backward), (x,))


def mul_scalar(x: Tensor, s: float) -> Tensor:
    s = F32(s)
    out_data = x.data * s

    def backward(g):
        return (g * s,)

    return Tensor(out_data, (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    out_data = x.data.reshape(shape)

    def backward(g):
        return (g.reshape(x.data.shape),)

    return _report("Reshape", Tensor(out_data, (x,), backward), (x,))


def concat(tensors) -> Tensor:
    """Join tensors on the last axis; a lone tensor is returned as is."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeMismatch("concat of zero tensors")
    if len(tensors) == 1:
        return tensors[0]
    out_data = np.concatenate([t.data for t in tensors], axis=-1)
    sizes = [t.data.shape[-1] for t in tensors]

    def backward(g):
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(g, splits, axis=-1))

    return _report("Concat", Tensor(out_data, tuple(tensors), backward), tensors)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of table by integer ids of any shape."""
    ids = np.asarray(ids, dtype=np.int64)
    out_data = kernels.embed_gather(ids, table.data)

    def backward(g):
        dtable = np.zeros_like(table.data)
        np.add.at(dtable, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (dtable,)

    return _report("EmbedGather", Tensor(out_data, (table,), backward), (ids, table))


def _kernel_op(opcode, kernel, backward, parents, *lengths, cached=False, **attrs) -> Tensor:
    """An op whose forward and backward are kernels: kernel(*data,
    *lengths, **attrs) gives the output and the cache that backward(cache,
    g) reads; a sequence op passes its lengths (or None) as the one extra
    argument. A cached kernel gets want_cache=True while recording; off
    recording the op makes the graph runtime's call and records no tape.
    The op reports itself to trace_hook. Callers look both kernels up on
    the kernels module as they run, and x and the weights go positionally,
    so a profiler that wraps a kernel sees every call and its arrays."""
    args = [p.data for p in parents] + list(lengths)
    if not recording:
        out = Tensor(kernel(*args, **attrs)[0])
    else:
        out_data, cache = kernel(*args, **attrs, **({"want_cache": True} if cached else {}))
        out = Tensor(out_data, parents, partial(backward, cache))
    return _report(opcode, out, parents, *lengths, **attrs)


def conv1d_maxpool(x: Tensor, filters: Tensor, lengths) -> Tensor:
    return _kernel_op("Conv1DMaxPool", _conv_maxpool, kernels.conv_maxpool_backward,
                      (x, filters), lengths, cached=True)


def _conv_maxpool(x, filters, lengths, **kwargs):
    # kernels.conv_maxpool still takes a float mask: the one the lengths give
    if lengths is None:
        mask = np.ones(x.shape[:2], dtype=F32)
    else:
        mask = (np.arange(x.shape[1]) < lengths[:, None]).astype(F32)
    return kernels.conv_maxpool(x, filters, mask, **kwargs)


def lstm_seq(x: Tensor, w_ih: Tensor, w_hh: Tensor, bias: Tensor, lengths,
             reverse=False) -> Tensor:
    return _kernel_op("LSTMSeq", kernels.lstm_seq, kernels.lstm_seq_backward,
                      (x, w_ih, w_hh, bias), lengths, cached=True, reverse=reverse)


def self_attention(h: Tensor, w1: Tensor, w2: Tensor, lengths) -> Tensor:
    return _kernel_op("SelfAttention", kernels.self_attention, kernels.self_attention_backward,
                      (h, w1, w2), lengths)


def highway(x: Tensor, w_t: Tensor, b_t: Tensor, w_g: Tensor, b_g: Tensor) -> Tensor:
    """One highway layer over x [n, d] (kernels.highway)."""
    return _kernel_op("Highway", kernels.highway, kernels.highway_backward,
                      (x, w_t, b_t, w_g, b_g))


def softmax(x: Tensor) -> np.ndarray:
    """Probabilities over the last axis, off the tape."""
    return _report("Softmax", kernels.softmax(x.data, axis=-1), (x,))


def argmax(x: Tensor) -> np.ndarray:
    """Index of the largest entry over the last axis, off the tape."""
    return _report("ArgMax", kernels.argmax_last(x.data), (x,))


def softmax_cross_entropy(logits: Tensor, targets, mask=None) -> Tensor:
    targets = np.asarray(targets, dtype=np.int64)
    mask = None if mask is None else np.asarray(mask, dtype=F32)
    loss, cache = kernels.softmax_cross_entropy(logits.data, targets, mask)

    def backward(g):
        return (kernels.softmax_cross_entropy_backward(cache, g),)

    return Tensor(loss, (logits,), backward)


def finite_diff_check(f, x: Tensor, eps: float = 1e-3) -> float:
    """Compare autodiff gradients of scalar f(x) against central differences.

    Returns max over components of |g_ad - g_fd| / max(1, |g_fd|). f is
    re-evaluated with perturbed x.data, so it must be a pure function of x.
    """
    x.grad = None
    out = f(x)
    out.backward()
    g_ad = x.grad if x.grad is not None else np.zeros_like(x.data)

    flat = x.data.reshape(-1)
    base = flat.copy()
    g_fd = np.zeros(flat.size, dtype=np.float64)
    for i in range(flat.size):
        flat[i] = base[i] + eps
        hi_x = float(flat[i])
        hi = float(f(x).data)
        flat[i] = base[i] - eps
        lo_x = float(flat[i])
        lo = float(f(x).data)
        flat[i] = base[i]
        g_fd[i] = (hi - lo) / (hi_x - lo_x)

    if flat.size == 0:
        return 0.0
    err = np.abs(g_ad.reshape(-1).astype(np.float64) - g_fd)
    denom = np.maximum(1.0, np.abs(g_fd))
    return float((err / denom).max())
