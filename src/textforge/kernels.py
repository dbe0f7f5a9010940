"""Pure numpy forward kernels shared by the eager engine and the graph runtime.

A kernel with a backward returns its output and the cache that the backward
reads, and the eager ops keep that cache for their hand-written backward
passes only while they record a tape. conv_maxpool and lstm_seq build it
only with want_cache=True, where it changes the work; the exported-graph
interpreter, and eager inference under ops.inference(), make the same calls
without it and drop the caches. Sharing the arithmetic is what keeps eager and
exported outputs bit-for-bit identical.

All float work is float32. lstm_seq and self_attention take lengths, int64
[b], where row i holds positions j < length_i (right padding), or None for no
padding; lstm_seq gives zeros at the padded positions. conv_maxpool still
takes the float32 mask that is 1 at exactly those positions and 0 elsewhere.
"""

from itertools import groupby

import numpy as np

from .errors import EmptyLoss, EmptySequence, IdOutOfRange, ShapeMismatch, TargetOutOfRange

F32 = np.float32
NEG_INF = np.float32(-np.inf)


def sigmoid(x, out=None):
    # The two-sided formula without a branch: for x >= 0 the numerator is
    # exp(0) = 1, giving 1 / (1 + exp(-x)); for x < 0 it is exp(x), the same
    # call on the same value as exp(-|x|), giving exp(x) / (1 + exp(x)).
    # Neither exp sees a positive argument, so neither overflows.
    return np.divide(np.exp(np.minimum(x, F32(0.0))), 1 + np.exp(-np.abs(x)), out=out)


def softmax(x, axis=-1):
    if x.size == 0:
        return np.array(x, copy=True)
    shifted = x - x.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)


def argmax_last(x):
    """Argmax over the last axis; ties take the lowest index."""
    if x.size == 0:
        return np.zeros(x.shape[:-1], dtype=np.int64)
    return np.argmax(x, axis=-1).astype(np.int64)


def relu(x):
    return np.maximum(x, F32(0.0))


def embed_gather(ids, table):
    """Rows of table by integer ids of any shape; an id outside the table raises."""
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IdOutOfRange("id outside [0, %d)" % table.shape[0])
    return table[ids]


def linear(x, w, b):
    """x @ w + b over the last axis of x; x may have any leading shape."""
    if x.shape[-1] != w.shape[0]:
        raise ShapeMismatch("linear: input dim %d vs weight rows %d" % (x.shape[-1], w.shape[0]))
    if w.shape[1] != b.shape[0]:
        raise ShapeMismatch("linear: weight cols %d vs bias %d" % (w.shape[1], b.shape[0]))
    return x @ w + b


# --- convolution with max-over-time pooling ---

def conv_maxpool(x, filters, mask, want_cache=False):
    """1-D convolution over time followed by max pooling over window positions.

    x [b, t, d], filters [w, d, f], mask [b, t] -> out [b, f].

    Valid windows lie entirely within a row's unmasked prefix. Rows shorter
    than the width get one window, left padded with zeros. An empty sequence
    (t == 0) gives zeros and no cache; a fully masked row of t > 0 is an
    error.
    """
    b, t, d = x.shape
    w, d2, f = filters.shape
    if d2 != d:
        raise ShapeMismatch("conv: input dim %d vs filter dim %d" % (d, d2))
    if mask.shape != (b, t):
        raise ShapeMismatch("conv: mask shape %s vs (%d, %d)" % (mask.shape, b, t))
    if t == 0:
        return np.zeros((b, f), dtype=F32), None
    lengths = mask.sum(axis=1).astype(np.int64)
    if b and (lengths == 0).any():
        raise EmptySequence("conv input has a fully masked row")

    # Left pad by w-1 so every window start s in [0, t) is expressible; the
    # window starting at s covers original positions s-w+1 .. s. Valid starts
    # for a row of length L are min(w-1, L-1) .. L-1, which yields the usual
    # L-w+1 windows when L >= w and exactly one zero-padded window otherwise.
    xp = np.concatenate([np.zeros((b, w - 1, d), dtype=F32), x], axis=1) if w > 1 else x
    s0, s1, s2 = xp.strides
    # window (i, s) row j is xp[i, s + j]; the copy keeps the GEMM on a dense operand
    windows = np.lib.stride_tricks.as_strided(xp, (b, t, w, d), (s0, s1, s1, s2),
                                              writeable=False)
    flat = np.ascontiguousarray(windows).reshape(b, t, w * d)
    scores = flat @ filters.reshape(w * d, f)  # [b, t, f]

    if (lengths == t).all():
        # no row is padded, so every row's valid starts are first .. t-1
        first = min(w - 1, t - 1)
        kept = scores[:, first:]
    else:
        first = 0
        starts = np.arange(t, dtype=np.int64)
        lo = np.minimum(w - 1, lengths - 1)
        valid = (starts[None, :] >= lo[:, None]) & (starts[None, :] <= (lengths - 1)[:, None])
        kept = np.where(valid[:, :, None], scores, NEG_INF)
    out = kept.max(axis=1)
    if not want_cache:
        return out, None
    winners = kept.argmax(axis=1) + first  # [b, f], lowest index on ties
    return out, (flat, winners, filters, w, t)


def conv_maxpool_backward(cache, dout):
    flat, winners, filters, w, t = cache
    b, _, wd = flat.shape
    f = filters.shape[2]
    d = wd // w
    dscores = np.zeros((b, t, f), dtype=F32)
    np.put_along_axis(dscores, winners[:, None, :], dout[:, None, :], axis=1)
    # each gradient is one GEMM over all b*t window positions
    dscores = dscores.reshape(b * t, f)
    dwin = (dscores @ filters.reshape(wd, f).T).reshape(b, t, w, d)
    dfilters = (flat.reshape(b * t, wd).T @ dscores).reshape(w, d, f)
    dxp = np.zeros((b, t + w - 1, d), dtype=F32)
    for j in range(w):
        dxp[:, j:j + t, :] += dwin[:, :, j, :]
    dx = dxp[:, w - 1:, :] if w > 1 else dxp
    return dx, dfilters


# --- LSTM over a whole sequence ---

def lstm_seq(x, w_ih, w_hh, bias, lengths, reverse=False, want_cache=False):
    """Unidirectional LSTM returning all hidden states.

    x [b, t, d], w_ih [d, 4h], w_hh [h, 4h], bias [4h], lengths [b] or None
    -> hs [b, t, h]. Gate order is input, forget, cell, output. Initial states
    are zero.

    The input projection x @ w_ih + bias is hoisted out of the recurrence
    into one GEMM over all timesteps, so each step adds only h_prev @ w_hh.

    A batch given lengths runs packed. The rows are sorted by length
    (stable, longest first) once and each step runs only the leading rows
    still inside their sequence; the reverse direction starts a row from
    zero state at its last position. When b >= 2 a step runs at least 2
    rows, computing one spare row and dropping it, because a 1-row
    h_prev @ w_hh takes another BLAS path than the b-row GEMM and rounds
    differently. So every state is bitwise what a step over all b rows
    gives, and lengths that cut no row give the states of None. A padded
    position holds float32 zeros in both directions, and the backward pass
    reads no gradient there.

    A call reuses a buffer across its steps only where no cache keeps it:
    the pre-activation z always; without want_cache also the gates, and
    each hidden state is written straight into hs. A cache holds fresh
    arrays per step, none a view of hs: the backward pass reads them all,
    and a strided h_prev would change the BLAS path of h_prev.T @ dz (and
    its bits) when h == 1.
    """
    b, t, d = x.shape
    if w_ih.shape[0] != d:
        raise ShapeMismatch("lstm: input dim %d vs w_ih rows %d" % (d, w_ih.shape[0]))
    four_h = w_ih.shape[1]
    if four_h % 4 != 0:
        raise ShapeMismatch("lstm: gate dim %d not divisible by 4" % four_h)
    h = four_h // 4
    if w_hh.shape != (h, four_h):
        raise ShapeMismatch("lstm: w_hh shape %s vs (%d, %d)" % (w_hh.shape, h, four_h))
    if bias.shape != (four_h,):
        raise ShapeMismatch("lstm: bias shape %s vs (%d,)" % (bias.shape, four_h))

    zx = (x.reshape(b * t, d) @ w_ih + bias).reshape(b, t, four_h)
    order = range(t - 1, -1, -1) if reverse else range(t)
    perm = None
    # (rows inside their sequence, rows a step runs, the steps that run them)
    runs = [(b, b, order)]
    if lengths is not None and t:  # at t == 0 no position is padded
        perm = np.argsort(-lengths, kind="stable")
        zx = zx[perm]
        active = (lengths[:, None] > np.arange(t)).sum(axis=0).tolist()
        runs = [(n, max(n, min(b, 2)), list(tis))
                for n, tis in groupby(order, active.__getitem__) if n]
    hs = np.zeros((b, t, h), dtype=F32)
    h_prev = np.zeros((b, h), dtype=F32)
    c_prev = np.zeros((b, h), dtype=F32)
    z = z_all = np.empty((b, four_h), dtype=F32)
    gates = gates_all = None if want_cache else np.empty((b, four_h), dtype=F32)
    zx_r, hs_r = zx, hs
    steps = [] if want_cache else None
    n_prev = 0
    for n, r, times in runs:
        if n_prev and n > n_prev:  # the reverse direction's rows join from zero state
            h_prev, c_prev = _grown(h_prev, n_prev, r), _grown(c_prev, n_prev, r)
        elif r < len(h_prev):
            h_prev, c_prev = h_prev[:r], c_prev[:r]
        n_prev = n
        if r != len(z):  # so an unpadded call slices nothing
            z, zx_r, hs_r = z_all[:r], zx[:r], hs[:r]
            gates = None if want_cache else gates_all[:r]
        z_cell = z[:, 2 * h:3 * h]
        views = None if want_cache else _gate_views(gates, h)
        for ti in times:
            np.matmul(h_prev, w_hh, out=z)
            z += zx_r[:, ti]
            s = sigmoid(z, out=gates)  # the cell block's sigmoid goes unused
            gi, gf, go = _gate_views(s, h) if want_cache else views
            gg = np.tanh(z_cell)
            c_cur = gf * c_prev + gi * gg
            tanh_c = np.tanh(c_cur)
            h_cur = np.multiply(go, tanh_c, out=None if want_cache else hs_r[:, ti])
            if want_cache:
                hs_r[:, ti] = h_cur
                steps.append((ti, n, s, gg, tanh_c, h_prev, c_prev))
            h_prev, c_prev = h_cur, c_cur
    cache = (x, w_ih, w_hh, steps, perm) if want_cache else None
    if perm is None:
        return hs, cache
    hs = hs[np.argsort(perm)]
    hs[np.arange(t) >= lengths[:, None]] = F32(0)  # also clears a spare row's states
    return hs, cache


def _grown(a, n, r):
    """The first n rows of a over r rows, the rest zero: the state rows joining at a step."""
    out = np.zeros((r, a.shape[1]), dtype=F32)
    out[:n] = a[:n]
    return out


def _gate_views(s, h):
    """The input, forget and output gates of a [b, 4h] sigmoid, as views."""
    return s[:, :h], s[:, h:2 * h], s[:, 3 * h:]


def lstm_seq_backward(cache, dhs):
    x, w_ih, w_hh, steps, perm = cache
    b, t, d = x.shape
    h, four_h = w_hh.shape
    if perm is not None:
        dhs = dhs[perm]
    dzs = np.zeros((b, t, four_h), dtype=F32)
    dw_hh = np.zeros_like(w_hh)
    # with OpenBLAS 0.3.31's Haswell kernels, dz @ w_hh.T of 19 rows or more
    # ran 2x slower on the transposed view than on a contiguous copy
    w_hh_t = np.ascontiguousarray(w_hh.T)
    dh_rec = dc_rec = np.zeros((0, h), dtype=F32)
    n_prev = 0
    for ti, n, s, gg, tanh_c, h_prev, c_prev in reversed(steps):
        if n > n_prev:  # rows join from zero: the forward direction's at their last position
            dh_rec, dc_rec = _grown(dh_rec, n_prev, n), _grown(dc_rec, n_prev, n)
        elif n < n_prev:  # the reverse direction's rows end
            dh_rec, dc_rec = dh_rec[:n], dc_rec[:n]
        n_prev = n
        r = len(h_prev)
        if n < r:  # a spare row ran: its dz stays zero, and h_prev.T @ dz keeps
            # K >= 2 (a K = 1 product took a path 7x slower)
            s, gg, tanh_c, c_prev = s[:n], gg[:n], tanh_c[:n], c_prev[:n]
        gi, gf, go = _gate_views(s, h)
        dh = dhs[:n, ti] + dh_rec
        dc = dc_rec + dh * go * (1 - tanh_c * tanh_c)
        # dz, in place in dzs: what each gate scales, times the gate's derivative
        dz = dzs[:r, ti]
        np.multiply(dc, gg, out=dz[:n, :h])
        np.multiply(dc, c_prev, out=dz[:n, h:2 * h])
        np.multiply(dc, gi, out=dz[:n, 2 * h:3 * h])
        np.multiply(dh, tanh_c, out=dz[:n, 3 * h:])
        deriv = s * (1 - s)  # the sigmoid's; the cell block's is the tanh's
        deriv[:, 2 * h:3 * h] = 1 - gg * gg
        dz[:n] *= deriv
        dw_hh += h_prev.T @ dz
        dh_rec = (dz @ w_hh_t)[:n]
        dc_rec = dc * gf
    if perm is not None:
        dzs = dzs[np.argsort(perm)]
    flat = dzs.reshape(b * t, four_h)
    dx = (flat @ w_ih.T).reshape(b, t, d)
    return dx, x.reshape(b * t, d).T @ flat, dw_hh, flat.sum(axis=0)


# --- additive self-attention pooling ---

def self_attention(h, w1, w2, lengths):
    """Scores tanh(h @ w1) @ w2, softmax over valid positions, weighted sum.

    h [b, t, H], w1 [H, a], w2 [a], lengths [b] or None -> out [b, H]. An
    empty sequence (t == 0) gives zeros; a row of length 0 in a batch of
    t > 0 is an error.
    """
    t, hd = h.shape[1:]
    if w1.shape[0] != hd:
        raise ShapeMismatch("attention: input dim %d vs w1 rows %d" % (hd, w1.shape[0]))
    if w2.shape != (w1.shape[1],):
        raise ShapeMismatch("attention: w2 shape %s vs (%d,)" % (w2.shape, w1.shape[1]))
    if t and lengths is not None and (lengths == 0).any():
        raise EmptySequence("attention input has a row of length 0")
    u = np.tanh(h @ w1)                     # [b, t, a]
    scores = u @ w2                         # [b, t]
    if lengths is not None:
        scores = np.where(np.arange(t) < lengths[:, None], scores, NEG_INF)
    alpha = softmax(scores, axis=1)         # zeros at padded positions
    out = (alpha[:, :, None] * h).sum(axis=1)
    return out, (h, w1, w2, u, alpha)


def self_attention_backward(cache, dout):
    h, w1, w2, u, alpha = cache
    b, t, hd = h.shape
    dalpha = np.einsum("bh,bth->bt", dout, h)
    dh = alpha[:, :, None] * dout[:, None, :]
    ds = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    du = ds[:, :, None] * w2[None, None, :]
    dw2 = (u * ds[:, :, None]).sum(axis=(0, 1))
    dpre = du * (1 - u * u)
    dh = dh + dpre @ w1.T
    dw1 = (h.reshape(b * t, hd).T @ dpre.reshape(b * t, w1.shape[1])).astype(F32)
    return dh.astype(F32), dw1, dw2.astype(F32)


# --- softmax cross entropy ---

def softmax_cross_entropy(logits, targets, mask=None):
    """Mean negative log softmax probability of the target over unmasked rows.

    logits [n, c] float32, targets [n] int64, mask [n] optional.
    """
    if logits.ndim != 2:
        raise ShapeMismatch("cross entropy expects [n, c] logits, got %s" % (logits.shape,))
    n, c = logits.shape
    if targets.shape != (n,):
        raise ShapeMismatch("cross entropy: %d logit rows vs targets %s" % (n, targets.shape))
    if mask is None:
        valid = np.ones(n, dtype=bool)
    else:
        if mask.shape != (n,):
            raise ShapeMismatch("cross entropy: mask shape %s vs (%d,)" % (mask.shape, n))
        valid = mask > 0
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise EmptyLoss("cross entropy over zero unmasked rows")
    tv = targets[valid]
    if tv.size and (tv.min() < 0 or tv.max() >= c):
        raise TargetOutOfRange("target id outside [0, %d)" % c)

    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    denom = ex.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(denom)
    nll = -log_probs[np.arange(n), np.clip(targets, 0, c - 1)]
    loss = np.float32((nll * valid).sum() / np.float32(n_valid))
    return np.asarray(loss, dtype=F32), (ex / denom, targets, valid, n_valid, c)


def softmax_cross_entropy_backward(cache, dloss):
    probs, targets, valid, n_valid, c = cache
    n = probs.shape[0]
    dlogits = probs.copy()
    dlogits[np.arange(n), np.clip(targets, 0, c - 1)] -= 1.0
    dlogits *= valid[:, None]
    dlogits *= np.float32(dloss) / np.float32(n_valid)
    return dlogits.astype(F32)


# --- highway combination used by the char-CNN embedding ---

def highway(x, w_t, b_t, w_g, b_g):
    """One layer over x [n, d]: relu transform gated against the carried
    input; keeps the feature dim."""
    pre_t = linear(x, w_t, b_t)
    hidden = relu(pre_t)
    gate = sigmoid(linear(x, w_g, b_g))
    carry = np.float32(1.0) - gate
    return gate * hidden + carry * x, (x, w_t, w_g, pre_t, hidden, gate, carry)


def highway_backward(cache, dout):
    """Gradients for x, w_t, b_t, w_g, b_g, summed as the elementwise ops' tape sums them."""
    x, w_t, w_g, pre_t, hidden, gate, carry = cache
    dpre_t = (dout * gate) * (pre_t > 0)
    dpre_g = (dout * hidden - dout * x) * gate * (1 - gate)
    dx = (dout * carry + dpre_t @ w_t.T) + dpre_g @ w_g.T
    return dx, x.T @ dpre_t, dpre_t.sum(axis=0), x.T @ dpre_g, dpre_g.sum(axis=0)
