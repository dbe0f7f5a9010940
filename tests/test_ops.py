"""Differentiable op contracts: hand-computed values plus finite differences.

The finite-difference harness perturbs every element of the checked tensor,
so instances stay deliberately tiny. Tolerances follow the harness contract:
max relative error below 1e-3 at eps 1e-3.
"""

import contextlib
import json
import warnings

import numpy as np
import pytest

import corpora
from textforge import cli, components, exporter, kernels, ops
from textforge.errors import (EmptySequence, IdOutOfRange, NotScalar,
                              ShapeMismatch, TargetOutOfRange)
from textforge.data_handler import Batch, VocabBundle, make_batches, single_example_batch
from textforge.exporter import export_pipeline, verify_equivalence
from textforge.graph import Executor, run
from textforge.model_zoo import TokenEmbedding
from textforge.pipeline import instantiate_task
from textforge.registry import parse_task_config
from textforge.tensor import Parameter, Tensor
from textforge.trainer import train
from textforge.vocab import Vocabulary

F32 = np.float32
TOL = 1e-3


def t(shape, rng, scale=1.0):
    return Tensor((rng.standard_normal(shape) * scale).astype(F32))


def scalarize(y: Tensor, rng) -> Tensor:
    """Fixed random linear functional, so any op output becomes a scalar."""
    flat = ops.reshape(y, (1, -1))
    k = flat.shape[1]
    w = Tensor((rng.standard_normal((k, 1)) * 0.5).astype(F32))
    b = Tensor(np.zeros(1, dtype=F32))
    return ops.reshape(ops.linear(flat, w, b), ())


class TestHandValues:
    def test_cross_entropy_of_uniform_two_way(self):
        logits = Tensor(np.zeros((1, 2), dtype=F32))
        loss = ops.softmax_cross_entropy(logits, np.array([0]))
        assert float(loss.data) == pytest.approx(0.6931471824645996, abs=0)

    def test_linear_by_hand(self):
        x = Tensor(np.array([[1.0, 2.0]], dtype=F32))
        w = Tensor(np.array([[3.0], [4.0]], dtype=F32))
        b = Tensor(np.array([0.5], dtype=F32))
        out = ops.linear(x, w, b)
        assert out.data.tolist() == [[11.5]]
        out2 = ops.reshape(out, ())
        out2.backward()
        assert x.grad.tolist() == [[3.0, 4.0]]
        assert w.grad.tolist() == [[1.0], [2.0]]
        assert b.grad.tolist() == [1.0]

    def test_backward_twice_doubles_grads(self):
        x = Tensor(np.array([2.0], dtype=F32))
        def loss():
            return ops.reshape(ops.mul(x, x), ())
        loss().backward()
        first = x.grad.copy()
        loss().backward()
        assert np.array_equal(x.grad, 2 * first)
        assert first.tolist() == [4.0]

    def test_off_tape_tensor_keeps_grad_none(self):
        x = Tensor(np.array([1.0], dtype=F32))
        bystander = Tensor(np.array([5.0], dtype=F32))
        ops.reshape(ops.mul(x, x), ()).backward()
        assert bystander.grad is None

    def test_embedding_grad_scatters_and_accumulates(self):
        table = Tensor(np.eye(3, dtype=F32))
        ids = np.array([[1, 1]], dtype=np.int64)
        out = ops.embedding_lookup(table, ids)
        # sum of both positions: row 1 is gathered twice
        s = ops.reshape(ops.linear(ops.reshape(out, (1, -1)),
                                   Tensor(np.ones((6, 1), dtype=F32)),
                                   Tensor(np.zeros(1, dtype=F32))), ())
        s.backward()
        assert table.grad[1].tolist() == [2.0, 2.0, 2.0]
        assert table.grad[0].tolist() == [0.0, 0.0, 0.0]

    def test_argmax_tie_takes_lowest_index(self):
        x = np.array([[1.0, 3.0, 3.0]], dtype=F32)
        assert kernels.argmax_last(x).tolist() == [1]

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 7)).astype(F32)
        s = kernels.softmax(x, axis=-1)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2), dtype=F32))
        with pytest.raises(NotScalar):
            ops.tanh(x).backward()


class TestErrors:
    def test_id_out_of_range(self):
        table = Tensor(np.zeros((3, 2), dtype=F32))
        with pytest.raises(IdOutOfRange):
            ops.embedding_lookup(table, np.array([3]))
        with pytest.raises(IdOutOfRange):
            ops.embedding_lookup(table, np.array([-1]))

    def test_linear_shape_checks(self):
        with pytest.raises(ShapeMismatch):
            kernels.linear(np.zeros((1, 3), dtype=F32), np.zeros((2, 2), dtype=F32),
                           np.zeros(2, dtype=F32))

    @pytest.mark.parametrize("kernel", ["conv_maxpool", "self_attention"])
    def test_conv_rejects_fully_masked_row(self, kernel):
        # a padded batch whose second row has length 0: conv_maxpool takes
        # its mask, self_attention its lengths
        x = np.zeros((2, 2, 3), dtype=F32)
        args = {"conv_maxpool": (np.zeros((2, 3, 4), dtype=F32),
                                 np.array([[1, 1], [0, 0]], dtype=F32)),
                "self_attention": (np.zeros((3, 4), dtype=F32), np.zeros(4, dtype=F32),
                                   np.array([2, 0]))}
        with pytest.raises(EmptySequence):
            getattr(kernels, kernel)(x, *args[kernel])

    def test_cross_entropy_target_out_of_range(self):
        logits = Tensor(np.zeros((1, 2), dtype=F32))
        with pytest.raises(TargetOutOfRange):
            ops.softmax_cross_entropy(logits, np.array([2]))


def run_checks(build, n=20, tol=TOL):
    worst = 0.0
    for i in range(n):
        rng = np.random.default_rng(1000 + i)
        f, x = build(rng)
        worst = max(worst, ops.finite_diff_check(f, x, eps=1e-3))
    assert worst < tol, "max relative grad error %.3g" % worst


class TestFiniteDifferences:
    def test_linear_wrt_each_operand(self):
        def build(rng):
            x = t((2, 3), rng)
            w = t((3, 2), rng)
            b = t((2,), rng)
            pick = [x, w, b][int(rng.integers(0, 3))]
            return (lambda _: scalarize(ops.linear(x, w, b), np.random.default_rng(5))), pick
        run_checks(build)

    def test_elementwise_chain(self):
        def build(rng):
            x = t((5,), rng)
            y = t((5,), rng)
            which = int(rng.integers(0, 4))
            if which == 2:
                # keep relu inputs away from the kink so central differences
                # never straddle it
                x.data += np.sign(x.data).astype(F32) * F32(0.05)
            def f(_):
                if which == 0:
                    out = ops.tanh(x)
                elif which == 1:
                    out = ops.sigmoid(x)
                elif which == 2:
                    out = ops.relu(x)
                else:
                    out = ops.add(ops.mul(x, y), ops.sub(x, y))
                return scalarize(out, np.random.default_rng(6))
            target = y if which == 3 and rng.integers(0, 2) else x
            return f, target
        run_checks(build)

    def test_concat_and_reshape(self):
        def build(rng):
            a = t((2, 3), rng)
            b = t((2, 2), rng)
            def f(_):
                return scalarize(ops.reshape(ops.concat([a, b]), (1, 10)),
                                 np.random.default_rng(7))
            return f, a if rng.integers(0, 2) else b
        run_checks(build)

    def test_embedding_lookup(self):
        def build(rng):
            table = t((6, 3), rng)
            ids = rng.integers(0, 6, size=(2, 4))
            def f(_):
                return scalarize(ops.embedding_lookup(table, ids),
                                 np.random.default_rng(8))
            return f, table
        run_checks(build)

    def test_conv_maxpool(self):
        def build(rng):
            tlen = int(rng.integers(1, 5))
            width = int(rng.integers(1, 4))
            x = t((2, tlen, 3), rng)
            filt = t((width, 3, 2), rng, scale=0.7)
            lengths = None
            # padded or not: an unpadded batch passes no lengths
            if tlen > 1 and rng.integers(0, 2):
                lengths = np.array([tlen, tlen - 1])
            def f(_):
                return scalarize(ops.conv1d_maxpool(x, filt, lengths),
                                 np.random.default_rng(9))
            return f, x if rng.integers(0, 2) else filt
        run_checks(build)

    def test_lstm_seq(self):
        def build(rng):
            tlen = int(rng.integers(1, 4))
            h = 2
            x = t((3, tlen, 3), rng)
            w_ih = t((3, 4 * h), rng, scale=0.5)
            w_hh = t((h, 4 * h), rng, scale=0.5)
            bias = t((4 * h,), rng, scale=0.2)
            lengths = None
            # padded or not: only a padded batch runs packed. Padded
            # lengths are unsorted (row 0 is shorter than row 1), and row 2
            # may be empty
            if tlen > 1 and rng.integers(0, 2):
                lengths = np.array([tlen - 1, tlen, rng.integers(0, tlen + 1)])
            reverse = bool(rng.integers(0, 2))
            target = [x, w_ih, w_hh, bias][int(rng.integers(0, 4))]
            def f(_):
                return scalarize(ops.lstm_seq(x, w_ih, w_hh, bias, lengths, reverse),
                                 np.random.default_rng(10))
            return f, target
        run_checks(build)

    def test_self_attention(self):
        def build(rng):
            tlen = int(rng.integers(1, 5))
            x = t((2, tlen, 4), rng)
            w1 = t((4, 3), rng, scale=0.6)
            w2 = t((3,), rng, scale=0.6)
            lengths = np.array([tlen, tlen - 1]) if tlen > 1 else None
            target = [x, w1, w2][int(rng.integers(0, 3))]
            def f(_):
                return scalarize(ops.self_attention(x, w1, w2, lengths),
                                 np.random.default_rng(11))
            return f, target
        run_checks(build)

    def test_cross_entropy(self):
        def build(rng):
            logits = t((3, 4), rng)
            targets = rng.integers(0, 4, size=3)
            use_mask = bool(rng.integers(0, 2))
            mask = np.array([1.0, 1.0, 0.0], dtype=F32) if use_mask else None
            def f(_):
                return ops.softmax_cross_entropy(logits, targets, mask)
            return f, logits
        run_checks(build)

    def test_highway_composition(self):
        """The gated relu block of the char CNN, composed of elementwise ops."""
        def build(rng):
            x = t((3, 4), rng)
            wt, bt = t((4, 4), rng, 0.5), t((4,), rng, 0.2)
            wg, bg = t((4, 4), rng, 0.5), t((4,), rng, 0.2)
            target = [x, wt, wg][int(rng.integers(0, 3))]
            def f(_):
                return scalarize(ref_highway(x, wt, bt, wg, bg), np.random.default_rng(12))
            return f, target
        run_checks(build)

    def test_char_cnn_of_a_padded_batch(self):
        """The char CNN's distinct-row path, w.r.t. the char table and a
        filter, on a padded batch that repeats a token."""
        vocabs = VocabBundle(Vocabulary(["ab"]), Vocabulary(list("abcdef")),
                             Vocabulary(["x"]), Vocabulary(["x"]))
        config = {"word_dim": 0, "char_dim": 2, "gaz_dim": 0, "cap_dim": 0,
                  "char_filter_widths": [2], "char_num_filters": 2, "char_highway_layers": 1}

        def build(rng):
            emb = TokenEmbedding("embedding", config, vocabs, rng)
            # drawn afresh: at init the PAD row and the biases are zero, which
            # puts the padding token's highway relu on its kink
            for param in emb.parameters():
                param.data = (rng.standard_normal(param.shape) * 0.5).astype(F32)
            # two tokens of three chars, no char twice, so no two windows are alike
            tokens = rng.permutation(np.arange(2, 8)).reshape(2, 3)
            char_ids = np.zeros((2, 3, 3), dtype=np.int64)
            char_ids[0] = tokens[[0, 1, 0]]
            char_ids[1, 0] = tokens[1]
            mask = np.array([[1, 1, 1], [1, 0, 0]], dtype=F32)
            zeros = np.zeros((2, 3), dtype=np.int64)
            batch = Batch(zeros, char_ids, {"gaz": zeros, "cap": zeros},
                          np.array([3, 1]), mask)
            params = emb.named_parameters()
            target = params["char.table" if rng.integers(0, 2) else "char.conv2"]
            return (lambda _: scalarize(emb.forward(batch), np.random.default_rng(14))), target
        run_checks(build)

    def test_highway(self):
        def build(rng):
            x = t((3, 4), rng)
            wt, bt = t((4, 4), rng, 0.5), t((4,), rng, 0.2)
            wg, bg = t((4, 4), rng, 0.5), t((4,), rng, 0.2)
            target = [x, wt, bt, wg, bg][int(rng.integers(0, 5))]
            def f(_):
                return scalarize(ops.highway(x, wt, bt, wg, bg), np.random.default_rng(13))
            return f, target
        run_checks(build)


def ref_highway(x, wt, bt, wg, bg):
    """One highway layer as the char CNN first built it, from relu, sigmoid,
    add, mul and sub on the tape: the oracle for ops.highway."""
    hidden = ops.relu(ops.linear(x, wt, bt))
    gate = ops.sigmoid(ops.linear(x, wg, bg))
    one = Tensor(np.ones_like(gate.data))
    return ops.add(ops.mul(gate, hidden), ops.mul(ops.sub(one, gate), x))


class TestHighwayOracle:
    """ops.highway against the elementwise composition it replaced: the same
    output and the same five gradients, bit for bit, so training a char model
    gives the same checkpoints."""

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal_to_the_composition(self, n_layers, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        x0 = rng.standard_normal((n, d)).astype(F32)
        weights = [(rng.standard_normal(shape) * 0.6).astype(F32)
                   for _ in range(n_layers) for shape in ((d, d), (d,), (d, d), (d,))]
        head = (rng.standard_normal((d, 3)) * 0.5).astype(F32)
        targets = rng.integers(0, 3, size=n)
        runs = []
        for layer in (ref_highway, ops.highway):
            x, params = Tensor(x0), [Parameter(w) for w in weights]
            out = x
            for i in range(n_layers):
                out = layer(out, *params[4 * i:4 * i + 4])
            logits = ops.linear(out, Parameter(head), Parameter(np.zeros(3, dtype=F32)))
            ops.softmax_cross_entropy(logits, targets).backward()
            runs.append([out.data, x.grad] + [p.grad for p in params])
        ref, got = runs
        assert len(got) == 2 + 4 * n_layers
        for i, (a, b) in enumerate(zip(ref, got)):
            assert a.dtype == b.dtype == F32 and a.tobytes() == b.tobytes(), i

    def test_graph_kernel_matches_the_op(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 5)).astype(F32)
        weights = [rng.standard_normal(s).astype(F32) for s in ((5, 5), (5,), (5, 5), (5,))]
        out, _ = kernels.highway(x, *weights)
        assert out.tobytes() == ops.highway(Tensor(x), *map(Tensor, weights)).data.tobytes()


def mask_of(lengths, b, t):
    """The float32 mask [b, t] the oracles below take for a kernel's lengths."""
    if lengths is None:
        return np.ones((b, t), dtype=F32)
    return (np.arange(t) < lengths[:, None]).astype(F32)


def padded_zeros(a, mask):
    """a [b, t, ...] with float32 +0 where mask [b, t] is 0. lstm_seq gives
    zeros at padded positions, where the oracles carry states, and reads no
    gradient there."""
    return np.where(mask.reshape(mask.shape + (1,) * (a.ndim - 2)) > 0, a, F32(0))


# --- the per-step LSTM kernel as first written: the oracle for the kernel ---

def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_lstm_seq(x, w_ih, w_hh, bias, mask, reverse):
    b, t, _ = x.shape
    h = w_hh.shape[0]
    hs = np.zeros((b, t, h), dtype=F32)
    h_prev = np.zeros((b, h), dtype=F32)
    c_prev = np.zeros((b, h), dtype=F32)
    steps = []
    for ti in (range(t - 1, -1, -1) if reverse else range(t)):
        m = mask[:, ti][:, None]
        z = x[:, ti] @ w_ih + h_prev @ w_hh + bias
        gi = ref_sigmoid(z[:, :h])
        gf = ref_sigmoid(z[:, h:2 * h])
        gg = np.tanh(z[:, 2 * h:3 * h])
        go = ref_sigmoid(z[:, 3 * h:])
        c_new = gf * c_prev + gi * gg
        tanh_c = np.tanh(c_new)
        h_new = go * tanh_c
        h_cur = m * h_new + (1 - m) * h_prev
        c_cur = m * c_new + (1 - m) * c_prev
        hs[:, ti] = h_cur
        steps.append((ti, m, gi, gf, gg, go, tanh_c, h_prev, c_prev))
        h_prev, c_prev = h_cur, c_cur
    return hs, steps


def ref_lstm_seq_backward(x, w_ih, w_hh, steps, dhs):
    b = x.shape[0]
    h = w_hh.shape[0]
    dx = np.zeros_like(x)
    dw_ih = np.zeros_like(w_ih)
    dw_hh = np.zeros_like(w_hh)
    db = np.zeros(w_ih.shape[1], dtype=F32)
    dh_rec = np.zeros((b, h), dtype=F32)
    dc_rec = np.zeros((b, h), dtype=F32)
    for ti, m, gi, gf, gg, go, tanh_c, h_prev, c_prev in reversed(steps):
        dh_total = dhs[:, ti] + dh_rec
        dh_new = m * dh_total
        dh_skip = (1 - m) * dh_total
        dc_new = m * dc_rec
        dc_skip = (1 - m) * dc_rec
        do = dh_new * tanh_c
        dc_new = dc_new + dh_new * go * (1 - tanh_c * tanh_c)
        df = dc_new * c_prev
        di = dc_new * gg
        dg = dc_new * gi
        dc_prev = dc_new * gf + dc_skip
        dz = np.concatenate([
            di * gi * (1 - gi),
            df * gf * (1 - gf),
            dg * (1 - gg * gg),
            do * go * (1 - go),
        ], axis=1)
        dx[:, ti] = dz @ w_ih.T
        dw_ih += x[:, ti].T @ dz
        dw_hh += h_prev.T @ dz
        db += dz.sum(axis=0)
        dh_rec = dz @ w_hh.T + dh_skip
        dc_rec = dc_prev
    return dx, dw_ih, dw_hh, db


# --- the LSTM kernel before packing: each step ran all b rows, and a masked
# step blended the old states back. The oracle for the packed kernel, whose
# states it must give bit for bit ---

def blend_lstm_seq(x, w_ih, w_hh, bias, mask, reverse=False, want_cache=False):
    b, t, d = x.shape
    four_h = w_ih.shape[1]
    h = four_h // 4
    zx = (x.reshape(b * t, d) @ w_ih + bias).reshape(b, t, four_h)
    full = bool(mask.all())
    hs = np.zeros((b, t, h), dtype=F32)
    h_prev = np.zeros((b, h), dtype=F32)
    c_prev = np.zeros((b, h), dtype=F32)
    z = np.empty((b, four_h), dtype=F32)
    z_cell = z[:, 2 * h:3 * h]
    gates = None if want_cache else np.empty((b, four_h), dtype=F32)
    views = None if want_cache else _blend_gate_views(gates, h)
    direct = full and not want_cache
    order = range(t - 1, -1, -1) if reverse else range(t)
    steps = [] if want_cache else None
    for ti in order:
        np.matmul(h_prev, w_hh, out=z)
        z += zx[:, ti]
        s = kernels.sigmoid(z, out=gates)
        gi, gf, go = _blend_gate_views(s, h) if want_cache else views
        gg = np.tanh(z_cell)
        c_cur = gf * c_prev + gi * gg
        tanh_c = np.tanh(c_cur)
        h_cur = np.multiply(go, tanh_c, out=hs[:, ti] if direct else None)
        m = None if full else mask[:, ti][:, None]
        if m is not None:
            keep = 1 - m
            h_cur = m * h_cur + keep * h_prev
            c_cur = m * c_cur + keep * c_prev
        if not direct:
            hs[:, ti] = h_cur
        if want_cache:
            steps.append((ti, m, gi, gf, gg, go, tanh_c, h_prev, c_prev))
        h_prev, c_prev = h_cur, c_cur
    cache = (x, w_ih, w_hh, steps, h) if want_cache else None
    return hs, cache


def _blend_gate_views(s, h):
    return s[:, :h], s[:, h:2 * h], s[:, 3 * h:]


def blend_lstm_seq_backward(cache, dhs):
    x, w_ih, w_hh, steps, h = cache
    b, t, d = x.shape
    four_h = w_ih.shape[1]
    dzs = np.zeros((b, t, four_h), dtype=F32)
    dw_hh = np.zeros_like(w_hh)
    dh_rec = np.zeros((b, h), dtype=F32)
    dc_rec = np.zeros((b, h), dtype=F32)
    for ti, m, gi, gf, gg, go, tanh_c, h_prev, c_prev in reversed(steps):
        dh = dhs[:, ti] + dh_rec
        dc = dc_rec
        if m is not None:
            dh_skip, dc_skip = (1 - m) * dh, (1 - m) * dc
            dh, dc = m * dh, m * dc
        dc = dc + dh * go * (1 - tanh_c * tanh_c)
        dzs[:, ti] = dz = np.concatenate([
            dc * gg * gi * (1 - gi),
            dc * c_prev * gf * (1 - gf),
            dc * gi * (1 - gg * gg),
            dh * tanh_c * go * (1 - go),
        ], axis=1)
        dw_hh += h_prev.T @ dz
        dh_rec = dz @ w_hh.T
        dc_rec = dc * gf
        if m is not None:
            dh_rec += dh_skip
            dc_rec += dc_skip
    flat = dzs.reshape(b * t, four_h)
    dx = (flat @ w_ih.T).reshape(b, t, d)
    return dx, x.reshape(b * t, d).T @ flat, dw_hh, flat.sum(axis=0)


# --- the conv kernel before its strided gather, unmasked fast path and
# GEMM gradients, and the attention weight gradient as an einsum ---

def ref_conv_maxpool(x, filters, mask):
    b, t, d = x.shape
    w, _, f = filters.shape
    lengths = mask.sum(axis=1).astype(np.int64)
    xp = np.concatenate([np.zeros((b, w - 1, d), dtype=F32), x], axis=1) if w > 1 else x
    windows = np.lib.stride_tricks.sliding_window_view(xp, w, axis=1)  # [b, t, d, w]
    flat = np.ascontiguousarray(windows.transpose(0, 1, 3, 2)).reshape(b, t, w * d)
    scores = flat @ filters.reshape(w * d, f)
    starts = np.arange(t, dtype=np.int64)
    lo = np.minimum(w - 1, lengths - 1)
    valid = (starts[None, :] >= lo[:, None]) & (starts[None, :] <= (lengths - 1)[:, None])
    masked = np.where(valid[:, :, None], scores, kernels.NEG_INF)
    return masked.max(axis=1), masked.argmax(axis=1), flat


def ref_conv_maxpool_backward(flat, winners, filters, t, dout):
    b, _, wd = flat.shape
    w, d, f = filters.shape
    dscores = np.zeros((b, t, f), dtype=F32)
    np.put_along_axis(dscores, winners[:, None, :], dout[:, None, :], axis=1)
    dflat = dscores @ filters.reshape(wd, f).T
    dfilters = np.einsum("btk,btf->kf", flat, dscores).reshape(w, d, f).astype(F32)
    dwin = dflat.reshape(b, t, w, d)
    dxp = np.zeros((b, t + w - 1, d), dtype=F32)
    for j in range(w):
        dxp[:, j:j + t, :] += dwin[:, :, j, :]
    return dxp[:, w - 1:, :] if w > 1 else dxp, dfilters


def assert_close_relative(got, want, rtol, name):
    assert got.shape == want.shape and got.dtype == F32, name
    err = np.abs(got - want).max() / max(np.abs(want).max(), np.finfo(F32).tiny)
    assert err < rtol, "%s: relative deviation %.3g" % (name, err)


class TestKernelOracle:
    @pytest.mark.parametrize("padded", [False, True], ids=["all_ones", "padded"])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("tlen", [1, 2, 7, 12])
    def test_conv_maxpool_matches_window_view_reference(self, tlen, width, padded):
        rng = np.random.default_rng(tlen * 10 + width)
        b, d, f = 5, 6, 4
        x = rng.standard_normal((b, tlen, d)).astype(F32)
        filters = (rng.standard_normal((width, d, f)) * 0.5).astype(F32)
        mask = np.ones((b, tlen), dtype=F32)
        if padded:
            # right padding; at t == 1 no row can be padded and stay nonempty
            lengths = rng.integers(1, tlen + 1, size=b)
            lengths[-1] = max(tlen - 1, 1)
            mask = (np.arange(tlen)[None, :] < lengths[:, None]).astype(F32)
        self._check_conv(x, filters, mask, rng)

    def test_conv_maxpool_on_a_char_batch_shorter_than_the_width(self):
        # the char CNN's shape: one row per token, all-ones mask, max_chars < w
        rng = np.random.default_rng(3)
        x = rng.standard_normal((448, 2, 16)).astype(F32)
        filters = (rng.standard_normal((3, 16, 32)) * 0.3).astype(F32)
        self._check_conv(x, filters, np.ones((448, 2), dtype=F32), rng)

    @staticmethod
    def _check_conv(x, filters, mask, rng):
        out, cache = kernels.conv_maxpool(x, filters, mask, want_cache=True)
        ref_out, ref_winners, ref_flat = ref_conv_maxpool(x, filters, mask)
        flat, winners = cache[0], cache[1]
        for name, got, want in (("out", out, ref_out), ("winners", winners, ref_winners),
                                ("flat", flat, ref_flat)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
        assert kernels.conv_maxpool(x, filters, mask)[0].tobytes() == out.tobytes()

        dout = rng.standard_normal(out.shape).astype(F32)
        dx, dfilters = kernels.conv_maxpool_backward(cache, dout)
        ref_dx, ref_dfilters = ref_conv_maxpool_backward(ref_flat, ref_winners, filters,
                                                         x.shape[1], dout)
        assert_close_relative(dx, ref_dx, 1e-5, "dx")
        assert_close_relative(dfilters, ref_dfilters, 1e-5, "dfilters")

    @pytest.mark.parametrize("shape", [(1, 1, 4, 3), (3, 7, 8, 5), (32, 14, 24, 16)])
    def test_self_attention_dw1_matches_einsum(self, shape):
        b, tlen, hd, a = shape
        rng = np.random.default_rng(b + tlen)
        h = rng.standard_normal((b, tlen, hd)).astype(F32)
        w1 = (rng.standard_normal((hd, a)) * 0.5).astype(F32)
        w2 = (rng.standard_normal(a) * 0.5).astype(F32)
        lengths = None
        if tlen > 1:
            lengths = np.full(b, tlen)
            lengths[0] = tlen - 1
        out, cache = kernels.self_attention(h, w1, w2, lengths)
        dout = rng.standard_normal(out.shape).astype(F32)
        _, dw1, _ = kernels.self_attention_backward(cache, dout)
        # dw1 as first written: the einsum over the un-reshaped operands
        _, _, _, u, alpha = cache
        dalpha = np.einsum("bh,bth->bt", dout, h)
        ds = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
        dpre = ds[:, :, None] * w2[None, None, :] * (1 - u * u)
        assert_close_relative(dw1, np.einsum("bti,btj->ij", h, dpre).astype(F32), 1e-5, "dw1")

    @pytest.mark.parametrize("padded", [False, True], ids=["all_ones", "padded"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("tlen", [1, 7])
    @pytest.mark.parametrize("b", [1, 3])
    def test_lstm_seq_matches_per_step_reference(self, b, tlen, reverse, padded):
        rng = np.random.default_rng(b * 100 + tlen)
        d, h = 5, 4
        x = rng.standard_normal((b, tlen, d)).astype(F32)
        w_ih = (rng.standard_normal((d, 4 * h)) * 0.5).astype(F32)
        w_hh = (rng.standard_normal((h, 4 * h)) * 0.5).astype(F32)
        bias = (rng.standard_normal(4 * h) * 0.2).astype(F32)
        lengths = None
        if padded:
            # right padding; the last row always is, and at t == 1 is empty
            lengths = rng.integers(1, tlen + 1, size=b)
            lengths[-1] = tlen - 1
        dhs = rng.standard_normal((b, tlen, h)).astype(F32)
        mask = mask_of(lengths, b, tlen)

        hs, cache = kernels.lstm_seq(x, w_ih, w_hh, bias, lengths, reverse, want_cache=True)
        ref_hs, steps = ref_lstm_seq(x, w_ih, w_hh, bias, mask, reverse)
        np.testing.assert_allclose(hs, padded_zeros(ref_hs, mask), rtol=0, atol=1e-6)
        assert hs.dtype == F32
        uncached, _ = kernels.lstm_seq(x, w_ih, w_hh, bias, lengths, reverse)
        assert uncached.tobytes() == hs.tobytes()

        grads = kernels.lstm_seq_backward(cache, dhs)
        ref_grads = ref_lstm_seq_backward(x, w_ih, w_hh, steps, padded_zeros(dhs, mask))
        for name, got, want in zip(("dx", "dw_ih", "dw_hh", "db"), grads, ref_grads):
            assert got.shape == want.shape and got.dtype == F32, name
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6, err_msg=name)

    # padded batches that the packed kernel must run as the blend kernel did:
    # b, t, h and the lengths, or None to draw them
    PACKED = {
        "unsorted": (5, 7, 48, [3, 7, 1, 6, 5]),
        "tied": (6, 5, 64, [4, 2, 4, 5, 2, 4]),
        "zero_length_rows": (4, 6, 48, [6, 0, 3, 0]),
        "one_valid_row_of_three": (3, 9, 64, [9, 2, 1]),
        "one_valid_row_of_two": (2, 6, 64, [1, 6]),
        "b32_h64": (32, 24, 64, None),
        "b32_h48": (32, 16, 48, None),
    }

    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("case", sorted(PACKED))
    def test_packed_lstm_seq_gives_the_blend_kernels_states(self, case, reverse):
        b, tlen, h, lengths = self.PACKED[case]
        rng = np.random.default_rng(sorted(self.PACKED).index(case))
        if lengths is None:
            lengths = rng.integers(0, tlen + 1, size=b)
            lengths[-1] = tlen - 1
        lengths = np.asarray(lengths)
        mask = mask_of(lengths, b, tlen)
        d = 20
        x = rng.standard_normal((b, tlen, d)).astype(F32)
        w_ih = (rng.standard_normal((d, 4 * h)) * 0.3).astype(F32)
        w_hh = (rng.standard_normal((h, 4 * h)) * 0.3).astype(F32)
        bias = (rng.standard_normal(4 * h) * 0.2).astype(F32)
        dhs = rng.standard_normal((b, tlen, h)).astype(F32)  # padded positions' too

        want, ref_cache = blend_lstm_seq(x, w_ih, w_hh, bias, mask, reverse, want_cache=True)
        assert blend_lstm_seq(x, w_ih, w_hh, bias, mask, reverse)[0].tobytes() == want.tobytes()
        for want_cache in (False, True):
            hs, cache = kernels.lstm_seq(x, w_ih, w_hh, bias, lengths, reverse, want_cache)
            assert hs.dtype == F32 and hs.shape == want.shape
            assert hs.tobytes() == padded_zeros(want, mask).tobytes(), \
                "want_cache=%s" % want_cache
        grads = kernels.lstm_seq_backward(cache, dhs)
        ref_grads = blend_lstm_seq_backward(ref_cache, padded_zeros(dhs, mask))
        for name, got, ref in zip(("dx", "dw_ih", "dw_hh", "db"), grads, ref_grads):
            assert_close_relative(got, ref, 1e-6, name)

    def test_sigmoid_pinned_to_two_sided_formula(self):
        # the where-free kernel is the two-sided formula because float32 exp(+-0) is exactly 1
        assert np.exp(np.array([0.0, -0.0], dtype=F32)).tolist() == [1.0, 1.0]
        edges = [0.0, 1e-8, 20.0, 88.7, 104.0, 1e38, np.inf]
        patterns = np.arange(0, 2 ** 32, 4099, dtype=np.uint64).astype(np.uint32).view(F32)
        rng = np.random.default_rng(0)
        x = np.concatenate([np.array(edges + [-v for v in edges], dtype=F32),
                            patterns[~np.isnan(patterns)],
                            rng.standard_normal(100_000).astype(F32),
                            (rng.standard_normal(100_000) * 30).astype(F32)])
        assert np.signbit(x[len(edges)])  # -0.0 is in the probe
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernels.sigmoid(x)
            want = ref_sigmoid(x)
        assert got.dtype == F32
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("padded", [False, True], ids=["all_ones", "padded"])
    def test_lstm_seq_buffers_are_not_shared(self, padded):
        rng = np.random.default_rng(11)
        b, tlen, d, h = 3, 6, 5, 4
        x = rng.standard_normal((b, tlen, d)).astype(F32)
        w_ih = (rng.standard_normal((d, 4 * h)) * 0.5).astype(F32)
        w_hh = (rng.standard_normal((h, 4 * h)) * 0.5).astype(F32)
        bias = (rng.standard_normal(4 * h) * 0.2).astype(F32)
        # unsorted, and from step 3 on one valid row runs with a spare one
        lengths = np.array([3, tlen, 1]) if padded else None
        dhs = rng.standard_normal((b, tlen, h)).astype(F32)
        for reverse in (False, True):
            for want_cache in (False, True):
                first, _ = kernels.lstm_seq(x, w_ih, w_hh, bias, lengths, reverse, want_cache)
                kept = first.copy()
                kernels.lstm_seq(x * 2, w_ih, w_hh, bias, lengths, reverse, want_cache)
                assert first.tobytes() == kept.tobytes()

            hs, cache = kernels.lstm_seq(x, w_ih, w_hh, bias, lengths, reverse, want_cache=True)
            # the gates, gg, tanh_c, h_prev and c_prev of every step
            kept = [a for step in cache[3] for a in step[2:]]
            assert len(kept) == 5 * tlen
            for i, a in enumerate(kept):
                assert not np.shares_memory(a, hs)
                assert not any(np.shares_memory(a, other) for other in kept[i + 1:])
            grads = kernels.lstm_seq_backward(cache, dhs)
            mask = mask_of(lengths, b, tlen)
            _, steps = ref_lstm_seq(x, w_ih, w_hh, bias, mask, reverse)
            ref_grads = ref_lstm_seq_backward(x, w_ih, w_hh, steps, padded_zeros(dhs, mask))
            for name, got, want in zip(("dx", "dw_ih", "dw_hh", "db"), grads, ref_grads):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-6, err_msg=name)

    @pytest.mark.parametrize("want_cache", [False, True])
    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("lengths", [[3, 6, 1], [6, 0, 3, 0]],
                             ids=["spare_row", "zero_length_rows"])
    def test_lstm_seq_gives_zeros_at_padded_positions(self, lengths, reverse, want_cache):
        rng = np.random.default_rng(len(lengths))
        lengths = np.array(lengths)
        b, tlen, d, h = len(lengths), 6, 5, 4
        x = rng.standard_normal((b, tlen, d)).astype(F32)
        w_ih = (rng.standard_normal((d, 4 * h)) * 0.5).astype(F32)
        w_hh = (rng.standard_normal((h, 4 * h)) * 0.5).astype(F32)
        bias = (rng.standard_normal(4 * h) * 0.2).astype(F32)
        hs, cache = kernels.lstm_seq(x, w_ih, w_hh, bias, lengths, reverse, want_cache)
        padded = np.arange(tlen) >= lengths[:, None]
        assert padded.any() and hs.dtype == F32
        assert hs[padded].tobytes() == np.zeros((padded.sum(), h), dtype=F32).tobytes()
        if not want_cache:
            return
        # the gradients of a padded position never reach the weights or x
        dhs = rng.standard_normal(hs.shape).astype(F32)
        assert_same_bytes(kernels.lstm_seq_backward(cache, dhs),
                          kernels.lstm_seq_backward(cache, padded_zeros(dhs, ~padded)),
                          "grads")


class TestEmptySequence:
    """A sequence of length 0 is the kernels' own case: the pooling kernels
    give float32 zeros and the LSTM gives no states."""

    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("w", [1, 2, 3, 4, 5])
    def test_conv_maxpool_gives_zeros(self, w, b):
        x = np.zeros((b, 0, 3), dtype=F32)
        filt = np.ones((w, 3, 4), dtype=F32)
        out, cache = kernels.conv_maxpool(x, filt, np.zeros((b, 0), dtype=F32), want_cache=True)
        assert out.dtype == F32
        assert out.tobytes() == np.zeros((b, 4), dtype=F32).tobytes()
        assert cache is None

    @pytest.mark.parametrize("b", [1, 3])
    def test_self_attention_gives_zeros(self, b):
        h = np.zeros((b, 0, 5), dtype=F32)
        w1, w2 = np.ones((5, 2), dtype=F32), np.ones(2, dtype=F32)
        out, _ = kernels.self_attention(h, w1, w2, None)
        assert out.dtype == F32
        assert out.tobytes() == np.zeros((b, 5), dtype=F32).tobytes()

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("b", [1, 3])
    def test_lstm_seq_gives_no_states(self, b, reverse):
        x = np.zeros((b, 0, 3), dtype=F32)
        w_ih, w_hh = np.ones((3, 8), dtype=F32), np.ones((2, 8), dtype=F32)
        hs, _ = kernels.lstm_seq(x, w_ih, w_hh, np.ones(8, dtype=F32), None, reverse=reverse)
        assert hs.dtype == F32
        assert hs.shape == (b, 0, 2)


def assert_same_bytes(got, want, name):
    """Arrays equal in dtype, shape and bytes, through tuples and lists."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), name
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want), name
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_bytes(g, w, "%s[%d]" % (name, i))
    else:
        assert got == want, name


class TestNoLengths:
    """None, an unpadded batch's lengths, gives the bits of lengths that cut
    no row: the output, and the cache and gradients where there are some."""

    @pytest.mark.parametrize("recording", [False, True])
    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("f", [1, 4])
    @pytest.mark.parametrize("tlen, w", [(0, 2), (1, 3), (2, 3), (4, 1), (5, 2), (9, 3)])
    def test_conv1d_maxpool(self, tlen, w, f, b, recording):
        # through the op, which gives the conv kernel the mask of its lengths
        rng = np.random.default_rng(tlen * 100 + w * 10 + f + b)
        x = t((b, tlen, 6), rng)
        filters = t((w, 6, f), rng, scale=0.5)
        outs, grads = [], []
        for lengths in (None, np.full(b, tlen)):
            for p in (x, filters):
                p.grad = None
            with contextlib.nullcontext() if recording else ops.inference():
                out = ops.conv1d_maxpool(x, filters, lengths)
            outs.append(out.data)
            if recording and tlen:  # t == 0 keeps no cache to run backward on
                scalarize(out, np.random.default_rng(1)).backward()
                grads.append((x.grad, filters.grad))
        assert_same_bytes(outs[0], outs[1], "out")
        assert_same_bytes(grads[:1], grads[1:], "grads")

    @pytest.mark.parametrize("want_cache", [False, True])
    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("tlen", [0, 1, 6])
    def test_lstm_seq(self, tlen, b, reverse, want_cache):
        rng = np.random.default_rng(tlen * 10 + b)
        d, h = 5, 4
        x = rng.standard_normal((b, tlen, d)).astype(F32)
        w_ih = (rng.standard_normal((d, 4 * h)) * 0.5).astype(F32)
        w_hh = (rng.standard_normal((h, 4 * h)) * 0.5).astype(F32)
        bias = (rng.standard_normal(4 * h) * 0.2).astype(F32)
        hs, cache = kernels.lstm_seq(x, w_ih, w_hh, bias, None, reverse, want_cache)
        want, want_cache_ = kernels.lstm_seq(x, w_ih, w_hh, bias, np.full(b, tlen), reverse,
                                             want_cache)
        assert_same_bytes(hs, want, "hs")
        if not want_cache:
            assert cache is want_cache_ is None
            return
        # x, the weights and every step's arrays; the row order is bookkeeping
        assert_same_bytes(cache[:4], want_cache_[:4], "cache")
        dhs = rng.standard_normal(hs.shape).astype(F32)
        assert_same_bytes(kernels.lstm_seq_backward(cache, dhs),
                          kernels.lstm_seq_backward(want_cache_, dhs), "grads")

    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("tlen", [0, 1, 6])
    def test_self_attention(self, tlen, b):
        rng = np.random.default_rng(tlen * 10 + b)
        h = rng.standard_normal((b, tlen, 6)).astype(F32)
        w1 = (rng.standard_normal((6, 3)) * 0.5).astype(F32)
        w2 = (rng.standard_normal(3) * 0.5).astype(F32)
        out, cache = kernels.self_attention(h, w1, w2, None)
        want, want_cache = kernels.self_attention(h, w1, w2, np.full(b, tlen))
        assert_same_bytes(out, want, "out")
        assert_same_bytes(cache, want_cache, "cache")
        dout = rng.standard_normal(out.shape).astype(F32)
        assert_same_bytes(kernels.self_attention_backward(cache, dout),
                          kernels.self_attention_backward(want_cache, dout), "grads")


class TestParameter:
    def test_is_a_tensor_leaf_holding_an_f32_copy(self):
        src = np.array([3.0], dtype=F32)
        p = Parameter(src)
        src[0] = 5.0
        assert isinstance(p, Tensor)
        assert p.parents == () and p.backward_fn is None and p.grad is None
        assert p.data.dtype == F32 and p.data.tolist() == [3.0]
        assert Parameter(np.array([1.5, 2.0])).data.dtype == F32
        assert not any(isinstance(v, property) for v in vars(Parameter).values())
        # ops take it as a tensor, and backward leaves the gradient on it
        ops.reshape(ops.mul(p, p), ()).backward()
        assert p.grad.tolist() == [6.0]


# --- kernels are looked up when they run, so a profiler can wrap them ---

PROFILED_KERNELS = ("conv_maxpool", "lstm_seq", "self_attention", "highway", "sigmoid",
                    "lstm_seq_backward", "conv_maxpool_backward")


def test_eager_and_graph_paths_look_kernels_up_at_call_time(tmp_path, monkeypatch):
    def pipe(kind, config, **overrides):
        (tmp_path / kind).mkdir()
        cfg = config(str(tmp_path / kind), n_train=8, n_eval=4, epochs=1, **overrides)
        return instantiate_task(parse_task_config(json.dumps(cfg)))

    pipes = [pipe("tagger", corpora.word_config, embedding={"token": {
                 "word_dim": 4, "char_dim": 3, "char_filter_widths": [2],
                 "char_num_filters": 4, "char_highway_layers": 1}}),
             pipe("doc", corpora.doc_config, representation={
                 "bilstm_attn": {"hidden_dim": 4, "attention_dim": 3}})]
    executors = [Executor(export_pipeline(p)) for p in pipes]
    called = set()
    for name in PROFILED_KERNELS:
        def counted(*args, _name=name, _kernel=getattr(kernels, name), **kwargs):
            called.add(_name)
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(kernels, name, counted)

    for p in pipes:
        p.train_loss(p.train_batches(0)[0]).backward()
        p.optimizer.step()
    assert called == set(PROFILED_KERNELS)
    called.clear()
    for ex in executors:
        run(ex, "Wake me at seven")
    assert called == set(PROFILED_KERNELS[:5])  # the forwards


# --- eager inference off the tape ---

_CHAR_EMBEDDING = {"token": {"word_dim": 4, "char_dim": 3, "char_filter_widths": [2],
                             "char_num_filters": 4, "char_highway_layers": 1}}
_INFERENCE_CONFIGS = {
    "doc": (corpora.doc_config, {}),
    "doc_attn": (corpora.doc_config, {"representation": {
        "bilstm_attn": {"hidden_dim": 4, "attention_dim": 3}}}),
    "word": (corpora.word_config, {"embedding": _CHAR_EMBEDDING}),
    "joint": (corpora.joint_config, {}),
}


@pytest.fixture(scope="module", params=sorted(_INFERENCE_CONFIGS))
def trained_pipe(request, tmp_path_factory):
    """A pipeline after a few training steps: one epoch of 3 batches."""
    build, overrides = _INFERENCE_CONFIGS[request.param]
    cfg = build(str(tmp_path_factory.mktemp(request.param)), n_train=18, n_eval=7, epochs=1,
                batch_size=6, **overrides)
    pipe = instantiate_task(parse_task_config(json.dumps(cfg)))
    train(pipe)
    return pipe


def _head_outputs(pipe, batch, source):
    """head -> (preds, scores) of every head that reads a batch of source."""
    if pipe.task != components.JOINT_TASK:
        outs = {"": pipe.model.forward(batch, compute_loss=False)}
    elif source == 0:
        outs = pipe.model.forward_all(batch)
    else:
        outs = {"word": pipe.model.tasks["word"].forward(batch, compute_loss=False)}
    return {head: (out.preds, out.scores) for head, out in outs.items()}


def _assert_same_bits(got, want):
    assert got.keys() == want.keys()
    for head, (preds, scores) in got.items():
        assert preds.tobytes() == want[head][0].tobytes(), head
        assert scores.dtype == want[head][1].dtype == F32, head
        assert scores.tobytes() == want[head][1].tobytes(), head


def test_inference_gives_the_bits_of_the_recording_path(trained_pipe):
    pipe = trained_pipe
    # padded eval batches, every source
    for source, full in enumerate(pipe._vectorized("eval")):
        batches = make_batches(full, 3)
        assert any((b.mask == 0).any() for b in batches), "no padded batch"
        for batch in batches:
            want = _head_outputs(pipe, batch, source)
            with ops.inference():
                got = _head_outputs(pipe, batch, source)
            _assert_same_bits(got, want)
    # single examples, the empty text included
    for text in ("", "wake", "Play it again in Paris tonight", "zqxv blorft"):
        batch = single_example_batch(pipe.featurizer.featurize(text), pipe.vocabs,
                                     pipe.char_width)
        want = _head_outputs(pipe, batch, 0)
        with ops.inference():
            got = _head_outputs(pipe, batch, 0)
        _assert_same_bits(got, want)


def test_train_loss_refuses_to_run_off_the_tape(trained_pipe):
    batch = trained_pipe.train_batches(0)[0]
    with ops.inference():
        with pytest.raises(RuntimeError, match="needs the tape"):
            trained_pipe.train_loss(batch)
    assert ops.recording
    assert trained_pipe.train_loss(batch).parents


def test_recording_is_restored_after_an_exception_and_in_nested_blocks():
    assert ops.recording
    with pytest.raises(ValueError):
        with ops.inference():
            assert not ops.recording
            raise ValueError("inside")
    assert ops.recording
    with ops.inference():
        with ops.inference():
            assert not ops.recording
        assert not ops.recording
    assert ops.recording


@pytest.mark.parametrize("recording", [True, False])
def test_kernel_ops_off_the_tape_record_no_parents_and_ask_no_cache(monkeypatch, recording):
    calls = []
    for name in ("conv_maxpool", "lstm_seq", "self_attention", "highway"):
        def spied(*args, _name=name, _kernel=getattr(kernels, name), **kwargs):
            calls.append((_name, sorted(kwargs)))
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(kernels, name, spied)
    rng = np.random.default_rng(0)
    lengths = np.array([4, 2])
    x = t((2, 4, 3), rng)
    cases = [  # (op, its kernel's name, its inputs, whether it keeps a cache)
        (ops.conv1d_maxpool, "conv_maxpool", (x, t((2, 3, 5), rng), lengths), True),
        (ops.lstm_seq, "lstm_seq", (x, t((3, 8), rng), t((2, 8), rng), t((8,), rng), lengths),
         True),
        (ops.self_attention, "self_attention", (x, t((3, 2), rng), t((2,), rng), lengths),
         False),
        (ops.highway, "highway", (t((4, 3), rng), t((3, 3), rng), t((3,), rng),
                                  t((3, 3), rng), t((3,), rng)), False),
    ]
    for op, name, args, cached in cases:
        calls.clear()
        with contextlib.nullcontext() if recording else ops.inference():
            out = op(*args)
        assert [c[0] for c in calls] == [name]
        assert ("want_cache" in calls[0][1]) == (recording and cached), name
        if recording:
            assert out.parents and out.backward_fn is not None, name
        else:
            assert out.parents == () and out.backward_fn is None, name


def test_prediction_evaluation_and_export_run_off_the_tape(trained_pipe, monkeypatch):
    # (recording, want_cache given) of each eager conv and LSTM kernel call;
    # the graph runtime's own calls, which verify_equivalence makes, are skipped
    modes, in_graph = [], []
    for name in ("conv_maxpool", "lstm_seq"):
        def spied(*args, _kernel=getattr(kernels, name), **kwargs):
            if not in_graph:
                modes.append((ops.recording, "want_cache" in kwargs))
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(kernels, name, spied)

    def graph_run(ex, feats):
        in_graph.append(True)
        try:
            return run(ex, feats)
        finally:
            in_graph.pop()
    monkeypatch.setattr(exporter, "run", graph_run)
    pipe = trained_pipe
    pipe.predict(pipe.featurizer.featurize("wake me in Paris"))
    pipe.evaluate()
    graphs = export_pipeline(pipe)
    for head, graph in (graphs.items() if isinstance(graphs, dict) else [(None, graphs)]):
        assert verify_equivalence(pipe, graph, n_samples=3, head=head).within(0.0)
    assert modes and set(modes) == {(False, False)}
    assert ops.recording


# --- the packed LSTM in whole models: what the blend kernel gave, it gives ---

def _epoch0_losses_and_grads(pipe):
    """Each epoch-0 batch's loss bytes and gradients, from the same parameters:
    no optimizer step runs between batches."""
    params = dict(pipe.model.named_parameters())
    out = []
    for batch in pipe.train_batches(0):
        for p in params.values():
            p.grad = None
        loss = pipe.train_loss(batch)
        loss.backward()
        out.append((loss.data.tobytes(),
                    {name: p.grad.copy() for name, p in params.items() if p.grad is not None}))
    return out


def _patch_blend_lstm(monkeypatch):
    def blend(x, w_ih, w_hh, bias, lengths, **kwargs):
        return blend_lstm_seq(x, w_ih, w_hh, bias, mask_of(lengths, *x.shape[:2]), **kwargs)
    monkeypatch.setattr(kernels, "lstm_seq", blend)
    monkeypatch.setattr(kernels, "lstm_seq_backward", blend_lstm_seq_backward)


@pytest.mark.parametrize("kind", ["joint", "word"])
def test_packed_lstm_keeps_each_training_loss_bit_for_bit(kind, tmp_path, monkeypatch):
    cfg = getattr(corpora, kind + "_config")(str(tmp_path), n_train=40, n_eval=8, epochs=1,
                                             batch_size=8)
    pipe = instantiate_task(parse_task_config(json.dumps(cfg)))
    assert any((batch.mask == 0).any() for batch in pipe.train_batches(0)), "no padded batch"
    got = _epoch0_losses_and_grads(pipe)
    _patch_blend_lstm(monkeypatch)
    want = _epoch0_losses_and_grads(pipe)
    assert len(got) == len(want) > 1
    for i, ((loss, grads), (ref_loss, ref_grads)) in enumerate(zip(got, want)):
        assert loss == ref_loss, "batch %d" % i
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            assert_close_relative(grad, ref_grads[name], 1e-6, "batch %d %s" % (i, name))


@pytest.mark.parametrize("kind", ["joint", "word"])
def test_packed_lstm_keeps_predictions_and_graphs_byte_for_byte(kind, tmp_path, monkeypatch,
                                                                capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(getattr(corpora, kind + "_config")(
        str(tmp_path), n_train=16, n_eval=6, epochs=1, batch_size=8)), encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
    ckpt = str(tmp_path / "model.ckpt")
    texts = tmp_path / "texts.txt"
    texts.write_text("set an alarm for nine\n\nplay some jazz zzz-unseen\n", encoding="utf-8")
    outputs = []
    for blend in (False, True):
        if blend:
            _patch_blend_lstm(monkeypatch)
        capsys.readouterr()
        assert cli.main(["predict", "--ckpt", ckpt, "--input", str(texts)]) == 0
        predictions = capsys.readouterr().out
        out_dir = tmp_path / ("graphs_%s" % blend)
        out_dir.mkdir()
        assert cli.main(["export", "--model", ckpt, "--out", str(out_dir / "model.graph")]) == 0
        graphs = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
        outputs.append((predictions, graphs))
    assert len(outputs[0][0].splitlines()) == 3
    assert len(outputs[0][1]) == (2 if kind == "joint" else 1)
    assert outputs[0] == outputs[1]
