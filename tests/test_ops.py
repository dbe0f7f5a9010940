"""Differentiable op contracts: hand-computed values plus finite differences.

The finite-difference harness perturbs every element of the checked tensor,
so instances stay deliberately tiny. Tolerances follow the harness contract:
max relative error below 1e-3 at eps 1e-3.
"""

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

    def test_conv_rejects_fully_masked_row(self):
        x = np.zeros((1, 2, 3), dtype=F32)
        filt = np.zeros((2, 3, 4), dtype=F32)
        with pytest.raises(EmptySequence):
            kernels.conv_maxpool(x, filt, np.zeros((1, 2), dtype=F32))

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
                return scalarize(ops.reshape(ops.concat([a, b], axis=-1), (1, 10)),
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
            if tlen > 1:
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
            if tlen > 1:
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
        """The gated relu block used by the char CNN, as built in eager mode."""
        def build(rng):
            x = t((3, 4), rng)
            wt, bt = t((4, 4), rng, 0.5), t((4,), rng, 0.2)
            wg, bg = t((4, 4), rng, 0.5), t((4,), rng, 0.2)
            target = [x, wt, wg][int(rng.integers(0, 3))]
            def f(_):
                hidden = ops.relu(ops.linear(x, wt, bt))
                gate = ops.sigmoid(ops.linear(x, wg, bg))
                one = Tensor(np.ones_like(gate.data))
                out = ops.add(ops.mul(gate, hidden),
                              ops.mul(ops.sub(one, gate), x))
                return scalarize(out, np.random.default_rng(12))
            return f, target
        run_checks(build)


class TestParameter:
    def test_data_setter_casts_to_f32(self):
        p = Parameter(np.zeros(2))
        p.data = np.array([1.0, 2.0], dtype=np.float64)
        assert p.data.dtype == np.float32
