"""Differentiable op contracts: hand-computed values plus finite differences.

The finite-difference harness perturbs every element of the checked tensor,
so instances stay deliberately tiny. Tolerances follow the harness contract:
max relative error below 1e-3 at eps 1e-3.
"""

import warnings

import numpy as np
import pytest

from textforge import kernels, ops
from textforge.errors import (EmptySequence, IdOutOfRange, NotScalar,
                              ShapeMismatch, TargetOutOfRange)
from textforge.tensor import Parameter, Tensor

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
        x = np.zeros((1, 2, 3), dtype=F32)
        weights = {"conv_maxpool": (np.zeros((2, 3, 4), dtype=F32),),
                   "self_attention": (np.zeros((3, 4), dtype=F32), np.zeros(4, dtype=F32))}
        with pytest.raises(EmptySequence):
            getattr(kernels, kernel)(x, *weights[kernel], np.zeros((1, 2), dtype=F32))

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
            mask = np.ones((2, tlen), dtype=F32)
            # padded or all ones: the kernel skips the mask when nothing is padded
            if tlen > 1 and rng.integers(0, 2):
                mask[1, tlen - 1] = 0.0
            def f(_):
                return scalarize(ops.conv1d_maxpool(x, filt, mask),
                                 np.random.default_rng(9))
            return f, x if rng.integers(0, 2) else filt
        run_checks(build)

    def test_lstm_seq(self):
        def build(rng):
            tlen = int(rng.integers(1, 4))
            h = 2
            x = t((2, tlen, 3), rng)
            w_ih = t((3, 4 * h), rng, scale=0.5)
            w_hh = t((h, 4 * h), rng, scale=0.5)
            bias = t((4 * h,), rng, scale=0.2)
            mask = np.ones((2, tlen), dtype=F32)
            # padded or all ones: the kernel skips the blend when nothing is padded
            if tlen > 1 and rng.integers(0, 2):
                mask[0, tlen - 1] = 0.0
            reverse = bool(rng.integers(0, 2))
            target = [x, w_ih, w_hh, bias][int(rng.integers(0, 4))]
            def f(_):
                return scalarize(ops.lstm_seq(x, w_ih, w_hh, bias, mask, reverse),
                                 np.random.default_rng(10))
            return f, target
        run_checks(build)

    def test_self_attention(self):
        def build(rng):
            tlen = int(rng.integers(1, 5))
            x = t((2, tlen, 4), rng)
            w1 = t((4, 3), rng, scale=0.6)
            w2 = t((3,), rng, scale=0.6)
            mask = np.ones((2, tlen), dtype=F32)
            if tlen > 1:
                mask[1, tlen - 1] = 0.0
            target = [x, w1, w2][int(rng.integers(0, 3))]
            def f(_):
                return scalarize(ops.self_attention(x, w1, w2, mask),
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
        out, cache = kernels.highway(x, *weights)
        assert cache is None
        assert out.tobytes() == ops.highway(Tensor(x), *map(Tensor, weights)).data.tobytes()


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
        mask = np.ones((b, tlen), dtype=F32)
        if tlen > 1:
            mask[0, tlen - 1] = 0.0
        out, cache = kernels.self_attention(h, w1, w2, mask, want_cache=True)
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
        mask = np.ones((b, tlen), dtype=F32)
        if padded:
            # right padding; the last row always is, and at t == 1 is empty
            lengths = rng.integers(1, tlen + 1, size=b)
            lengths[-1] = tlen - 1
            mask = (np.arange(tlen)[None, :] < lengths[:, None]).astype(F32)
        dhs = rng.standard_normal((b, tlen, h)).astype(F32)

        hs, cache = kernels.lstm_seq(x, w_ih, w_hh, bias, mask, reverse, want_cache=True)
        ref_hs, steps = ref_lstm_seq(x, w_ih, w_hh, bias, mask, reverse)
        np.testing.assert_allclose(hs, ref_hs, rtol=0, atol=1e-6)
        assert hs.dtype == F32
        uncached, _ = kernels.lstm_seq(x, w_ih, w_hh, bias, mask, reverse)
        assert uncached.tobytes() == hs.tobytes()

        grads = kernels.lstm_seq_backward(cache, dhs)
        ref_grads = ref_lstm_seq_backward(x, w_ih, w_hh, steps, dhs)
        for name, got, want in zip(("dx", "dw_ih", "dw_hh", "db"), grads, ref_grads):
            assert got.shape == want.shape and got.dtype == F32, name
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6, err_msg=name)

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
        lengths = np.array([tlen, 3, 1]) if padded else np.full(b, tlen)
        mask = (np.arange(tlen)[None, :] < lengths[:, None]).astype(F32)
        dhs = rng.standard_normal((b, tlen, h)).astype(F32)
        for reverse in (False, True):
            for want_cache in (False, True):
                first, _ = kernels.lstm_seq(x, w_ih, w_hh, bias, mask, reverse, want_cache)
                kept = first.copy()
                kernels.lstm_seq(x * 2, w_ih, w_hh, bias, mask, reverse, want_cache)
                assert first.tobytes() == kept.tobytes()

            hs, cache = kernels.lstm_seq(x, w_ih, w_hh, bias, mask, reverse, want_cache=True)
            # gi, gf, go, tanh_c, h_prev and c_prev of every step
            kept = [a for step in cache[3] for a in step[2:4] + step[5:]]
            assert len(kept) == 6 * tlen
            for i, a in enumerate(kept):
                assert not np.shares_memory(a, hs)
                assert not any(np.shares_memory(a, other) for other in kept[i + 1:])
            grads = kernels.lstm_seq_backward(cache, dhs)
            _, steps = ref_lstm_seq(x, w_ih, w_hh, bias, mask, reverse)
            ref_grads = ref_lstm_seq_backward(x, w_ih, w_hh, steps, dhs)
            for name, got, want in zip(("dx", "dw_ih", "dw_hh", "db"), grads, ref_grads):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-6, err_msg=name)


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
        out, _ = kernels.self_attention(h, w1, w2, np.zeros((b, 0), dtype=F32))
        assert out.dtype == F32
        assert out.tobytes() == np.zeros((b, 5), dtype=F32).tobytes()

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("b", [1, 3])
    def test_lstm_seq_gives_no_states(self, b, reverse):
        x = np.zeros((b, 0, 3), dtype=F32)
        w_ih, w_hh = np.ones((3, 8), dtype=F32), np.ones((2, 8), dtype=F32)
        hs, _ = kernels.lstm_seq(x, w_ih, w_hh, np.ones(8, dtype=F32),
                                 np.zeros((b, 0), dtype=F32), reverse=reverse)
        assert hs.dtype == F32
        assert hs.shape == (b, 0, 2)


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
