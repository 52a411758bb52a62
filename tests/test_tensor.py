"""Gradient checks for the autodiff tape against central finite differences."""
from __future__ import annotations

import threading

import numpy as np
import pytest

from nkm import tensor as T


def fd_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f at x, one coordinate at a time."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def check_against_fd(build, x0: np.ndarray, rtol: float = 1e-6):
    """build(Tensor) -> scalar Tensor; compares tape grad to FD at x0."""
    xt = T.Tensor(x0.copy(), requires_grad=True)
    out = build(xt)
    out.backward()
    got = xt.grad.copy()

    def f(arr):
        return build(T.Tensor(arr)).item()

    want = fd_grad(f, x0.copy())
    scale = max(1.0, np.max(np.abs(want)))
    assert np.allclose(got, want, atol=rtol * scale), (
        f"max abs diff {np.max(np.abs(got - want))}")


RNG = np.random.default_rng(7)


class TestElementwise:
    def test_add_broadcast(self):
        b = RNG.standard_normal((1, 4))
        check_against_fd(lambda x: T.tsum(T.mul(T.add(x, T.Tensor(b)), T.add(x, T.Tensor(b)))),
                         RNG.standard_normal((3, 4)))

    def test_sub_neg_div(self):
        y = RNG.standard_normal((3, 4)) + 3.0
        check_against_fd(lambda x: T.tsum(T.div(T.neg(T.sub(x, 1.5)), T.Tensor(y))),
                         RNG.standard_normal((3, 4)))

    def test_mul_square_sqrt_exp(self):
        check_against_fd(
            lambda x: T.tsum(T.sqrt(T.add(T.square(x), 1.0))) + T.tsum(T.exp(T.mul(x, 0.3))),
            RNG.standard_normal((2, 5)))

    def test_relu(self):
        x0 = RNG.standard_normal((4, 4))
        x0[np.abs(x0) < 0.05] += 0.2  # stay away from the kink
        check_against_fd(lambda x: T.tsum(T.square(T.relu(x))), x0)

    def test_sigmoid_silu(self):
        check_against_fd(lambda x: T.tsum(T.sigmoid(x)) + T.tsum(T.silu(x)),
                         RNG.standard_normal((3, 3)) * 2)

    def test_silu_value(self):
        x = np.array([[0.0, 1.0, -1.0]])
        out = T.silu(T.Tensor(x)).data
        # x times the two-branch sigmoid: 1/(1 + e^-x) for x >= 0, else e^x/(1 + e^x)
        want = x * np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
        assert out.tobytes() == want.tobytes()
        assert out[0, 0] == 0.0

    def test_sigmoid_extreme_inputs_stable(self):
        x = T.Tensor(np.array([[-800.0, 800.0]]))
        s = T.sigmoid(x).data
        assert np.all(np.isfinite(s))
        assert s[0, 0] == 0.0 and s[0, 1] == 1.0


class TestMatmulReductions:
    def test_matmul_both_sides(self):
        B = RNG.standard_normal((4, 3))
        check_against_fd(lambda x: T.tsum(T.square(T.matmul(x, T.Tensor(B)))),
                         RNG.standard_normal((2, 4)))
        A = RNG.standard_normal((2, 4))
        check_against_fd(lambda x: T.tsum(T.square(T.matmul(T.Tensor(A), x))),
                         RNG.standard_normal((4, 3)))

    def test_matmul_rejects_1d(self):
        with pytest.raises(ValueError):
            T.matmul(T.Tensor(np.ones(3)), T.Tensor(np.ones((3, 2))))

    def test_transpose(self):
        check_against_fd(lambda x: T.tsum(T.square(T.matmul(T.transpose(x), x))),
                         RNG.standard_normal((3, 2)))

    def test_sum_axis_keepdims(self):
        check_against_fd(lambda x: T.tsum(T.square(T.tsum(x, axis=1, keepdims=True))),
                         RNG.standard_normal((3, 4)))
        check_against_fd(lambda x: T.tsum(T.square(T.tsum(x, axis=0))),
                         RNG.standard_normal((3, 4)))

    def test_mean(self):
        x0 = RNG.standard_normal((4, 5))
        out = T.tmean(T.Tensor(x0)).item()
        assert np.isclose(out, x0.mean())
        check_against_fd(lambda x: T.square(T.tmean(x, axis=None)), x0)

    def test_l2_norm(self):
        check_against_fd(lambda x: T.l2_norm(x), RNG.standard_normal((3, 3)) + 2.0)


class TestLayerNormConcat:
    def test_layer_norm_forward_zero(self):
        # all-zero row maps to beta via the eps guard
        out, _, _ = T._layer_norm_values(np.zeros((2, 4)), np.ones(4), np.zeros(4))
        assert np.array_equal(out, np.zeros((2, 4)))

    def test_layer_norm_forward_known(self):
        # row (1,2,3): mean 2, population var 2/3 -> xhat = (-1,0,1)/sqrt(2/3+eps)
        x = np.array([[1.0, 2.0, 3.0]])
        out, _, _ = T._layer_norm_values(x, np.ones(3), np.zeros(3))
        want = (x - 2.0) / np.sqrt(2.0 / 3.0 + 1e-5)
        assert np.allclose(out, want, atol=1e-12)

    def test_layer_norm_grads(self):
        # the x-gradient kernel against differences of the value kernel
        gamma0 = RNG.standard_normal(6)
        beta0 = RNG.standard_normal(6)
        x0 = RNG.standard_normal((3, 6))
        c = RNG.standard_normal((3, 6))
        _, xhat, inv = T._layer_norm_values(x0, gamma0, beta0)
        got = T._layer_norm_grad_x(c, gamma0, xhat, inv)
        want = fd_grad(lambda x: float(np.sum(c * T._layer_norm_values(x, gamma0, beta0)[0])),
                       x0.copy())
        assert np.allclose(got, want, atol=1e-6)

    def test_dense_ln_silu_grads(self):
        h0 = RNG.standard_normal((5, 4))
        mask = (RNG.random((5, 3)) >= 0.3) / 0.7
        ins0 = [RNG.standard_normal(s) for s in ((4, 3), (3,), (3,), (3,))]

        def block(*ins):
            return T.tsum(T.square(T.dense_ln_silu(*ins, mask)))

        check_against_fd(lambda h: block(h, *ins0), h0, rtol=1e-5)
        for i, p0 in enumerate(ins0):
            def f(p, i=i):
                ins = [T.Tensor(a) for a in ins0]
                ins[i] = p
                return block(T.Tensor(h0), *ins)
            check_against_fd(f, p0, rtol=1e-5)

    def test_reshape(self):
        x0 = RNG.standard_normal((3, 4))
        w0 = RNG.standard_normal((2, 3, 2))
        check_against_fd(
            lambda x: T.tsum(T.mul(T.square(T.reshape(x, (2, 3, 2))), w0)), x0)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_concat(self, axis):
        # a constant part first, so the cut positions are uneven
        x0 = RNG.standard_normal((2, 3) if axis == 0 else (3, 2))
        c0 = RNG.standard_normal((1, 3) if axis == 0 else (3, 1))
        w0 = RNG.standard_normal((5, 3) if axis == 0 else (3, 5))
        check_against_fd(
            lambda x: T.tsum(T.mul(T.square(
                T.concat([T.Tensor(c0), x, T.sigmoid(x)], axis=axis)), w0)), x0)

    def test_take_rows(self):
        # overlapping blocks of the same tensor, one 3-D: gradients add up
        x0 = RNG.standard_normal((6, 2, 2))
        w0 = RNG.standard_normal((4, 2, 2))
        check_against_fd(
            lambda x: T.tsum(T.mul(T.add(T.square(T.take_rows(x, slice(0, 4))),
                                         T.take_rows(x, slice(2, None))), w0)),
            x0)

    def test_take_rows_repeated_indices(self):
        # an index array that names rows out of order and some of them
        # twice or three times, and skips others: each occurrence's gradient
        # adds into its row, and a skipped row gets zero
        x0 = RNG.standard_normal((5, 3))
        rows = np.array([4, 0, 4, 2, 0, 4])
        w0 = RNG.standard_normal((6, 3))
        check_against_fd(
            lambda x: T.tsum(T.mul(T.square(T.take_rows(x, rows)), w0)), x0)
        xt = T.Tensor(x0.copy(), requires_grad=True)
        T.tsum(T.take_rows(xt, rows)).backward()
        assert np.array_equal(xt.grad[:, 0], [2.0, 0.0, 1.0, 0.0, 3.0])
        # -1 names row 4 again, so it is a repeat too
        xt = T.Tensor(x0.copy(), requires_grad=True)
        T.tsum(T.take_rows(xt, np.array([4, 1, -1]))).backward()
        assert np.array_equal(xt.grad[:, 0], [0.0, 1.0, 0.0, 0.0, 2.0])

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("prior", [False, True],
                             ids=["first-store", "accumulated"])
    def test_take_rows_unique_index_matches_add_at(self, order, prior):
        # an index that names no row twice stores its gradient by
        # assignment; the gradient must be np.add.at's byte for byte, also
        # where g holds a -0.0 that a plain store would keep negative and an
        # earlier gradient of -0.0 would then keep so
        x0 = RNG.standard_normal((6, 4))
        rows = np.array([4, 0, -1, 2])          # -1 is row 5
        g = np.array(RNG.standard_normal((4, 4)), order=order)
        g[1, 2] = -0.0                           # lands on row 0
        earlier = RNG.standard_normal((6, 4))
        earlier[0, 2] = -0.0
        xt = T.Tensor(x0, requires_grad=True)
        if prior:
            xt.grad = earlier.copy()
        T.take_rows(xt, rows)._backward(g)
        full = np.zeros_like(x0)
        np.add.at(full, rows, g)
        ref = T.Tensor(x0, requires_grad=True)
        if prior:
            ref.grad = earlier.copy()
        ref._accumulate(full)
        assert xt.grad.tobytes() == ref.grad.tobytes()
        assert not np.signbit(xt.grad[0, 2])


class TestTapeMechanics:
    def test_grad_accumulates_on_reuse(self):
        x = T.Tensor(np.array(3.0), requires_grad=True)
        y = T.add(T.mul(x, x), x)  # x^2 + x -> grad 2x + 1
        y.backward()
        assert np.isclose(float(x.grad), 7.0)

    def test_backward_requires_scalar(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            T.square(x).backward()

    def test_detach_blocks_grad(self):
        x = T.Tensor(np.array(2.0), requires_grad=True)
        y = T.mul(x.detach(), x)
        y.backward()
        assert np.isclose(float(x.grad), 2.0)  # only the attached factor

    def test_constants_ignored(self):
        x = T.Tensor(np.array(2.0), requires_grad=True)
        out = T.mul(T.add(x, 1.0), 3.0)
        out.backward()
        assert np.isclose(float(x.grad), 3.0)

    def test_diamond_graph(self):
        x = T.Tensor(np.array(1.5), requires_grad=True)
        a = T.mul(x, 2.0)
        b = T.mul(x, 3.0)
        out = T.mul(a, b)  # 6 x^2 -> grad 12 x
        out.backward()
        assert np.isclose(float(x.grad), 18.0)

    def test_no_grad_records_no_tape(self):
        x = T.Tensor(np.ones((2, 3)), requires_grad=True)
        with T.no_grad():
            y = T.tsum(T.silu(T.matmul(x, T.transpose(x))))
        assert not y.requires_grad and y._parents == () and y._backward is None
        assert np.isclose(y.item(), 4 * 3.0 / (1.0 + np.exp(-3.0)))  # 2x2 of silu(3)
        # recording resumes after the block, also when it is left by an error
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("leave the block")
        z = T.mul(x, 2.0)
        assert z.requires_grad and z._parents

    def test_no_grad_is_per_thread(self):
        x = T.Tensor(np.ones(2), requires_grad=True)
        seen = []
        worker = threading.Thread(
            target=lambda: seen.append(T.mul(x, 2.0).requires_grad))
        with T.no_grad():
            worker.start()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert seen == [True]
