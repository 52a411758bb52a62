"""Spectral-norm estimation, SVD clipping and Gram pinv contracts, projection
helpers."""
from __future__ import annotations

import numpy as np
import pytest

from nkm import linalg as LA
from nkm.model import init_koopman
from nkm.tensor import Tensor


class TestPowerIteration:
    def test_matches_svd_on_seeded_matrices(self):
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(2, 65))
            K = rng.standard_normal((n, n)) / np.sqrt(n)
            sv = float(np.linalg.svd(K, compute_uv=False)[0])
            est = LA.power_iteration_norm(K, iters=50, seed=seed)
            assert est <= sv + 1e-10  # estimates from below
            worst = max(worst, abs(est - sv))
        assert worst < 1e-4

    def test_zero_matrix_returns_zero(self):
        assert LA.power_iteration_norm(np.zeros((4, 4)), iters=10) == 0.0

    def test_deterministic_given_seed(self):
        K = np.random.default_rng(3).standard_normal((8, 8))
        a = LA.power_iteration_norm(K, iters=20, seed=5)
        b = LA.power_iteration_norm(K, iters=20, seed=5)
        assert a == b

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            LA.power_iteration_norm(np.ones(3))
        with pytest.raises(ValueError):
            LA.power_iteration_norm(np.full((2, 2), np.nan))
        with pytest.raises(ValueError):
            LA.power_iteration_norm(np.eye(2), iters=0)

    def test_diagonal_known_norm(self):
        K = np.diag([0.2, -1.7, 0.5])
        assert abs(LA.power_iteration_norm(K, iters=30) - 1.7) < 1e-10


class TestDifferentiableEstimate:
    # the estimate runs a fixed 10 iterations from a fixed start vector
    def test_close_to_norm_on_gapped_matrix(self):
        # clear top singular value (gap 4x) so 10 iterations suffice
        rng = np.random.default_rng(0)
        U, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        V, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        K = U @ np.diag([2.0, 0.5, 0.4, 0.3, 0.2, 0.1]) @ V.T
        est = LA.spectral_norm_differentiable(Tensor(K)).item()
        assert abs(est - 2.0) < 1e-8

    def test_never_exceeds_norm(self):
        for seed in range(10):
            K = np.random.default_rng(seed).standard_normal((12, 12))
            sv = float(np.linalg.svd(K, compute_uv=False)[0])
            est = LA.spectral_norm_differentiable(Tensor(K)).item()
            assert est <= sv + 1e-10

    def test_gradient_matches_fd(self):
        K0 = np.random.default_rng(2).standard_normal((5, 5))
        Kt = Tensor(K0.copy(), requires_grad=True)
        out = LA.spectral_norm_differentiable(Kt)
        out.backward()
        got = Kt.grad.copy()
        h = 1e-6
        want = np.zeros_like(K0)
        for i in range(5):
            for j in range(5):
                Kp = K0.copy(); Kp[i, j] += h
                Km = K0.copy(); Km[i, j] -= h
                fp = LA.spectral_norm_differentiable(Tensor(Kp)).item()
                fm = LA.spectral_norm_differentiable(Tensor(Km)).item()
                want[i, j] = (fp - fm) / (2 * h)
        assert np.allclose(got, want, atol=1e-5)


class TestSvdPinv:
    def test_svd_reconstructs(self):
        # rectangular, clipped at the second singular value: A - Ac must be
        # rank 1 with norm s0 - s1, so the factorization reconstructs A
        A = np.random.default_rng(1).standard_normal((7, 4))
        s = np.linalg.svd(A, compute_uv=False)
        Ac = LA.clip_singular_values(A, s[1])
        assert Ac.shape == A.shape
        got = np.linalg.svd(Ac, compute_uv=False)
        assert np.allclose(got, np.minimum(s, s[1]), atol=1e-10)
        r = np.linalg.svd(A - Ac, compute_uv=False)
        assert abs(r[0] - (s[0] - s[1])) < 1e-10
        assert np.all(r[1:] < 1e-10)

    def test_no_dimension_cap(self):
        # realistic sizes (d_z > 512, 500+ RBF centers) must not hit a cap
        X = np.random.default_rng(0).standard_normal((1200, 600))
        G = X.T @ X / 1200
        assert np.allclose(G @ LA.pinv(G) @ G, G, atol=1e-8)
        A = X[:600]
        s = np.linalg.svd(A, compute_uv=False)
        Ac = LA.clip_singular_values(A, s[300])
        assert np.linalg.svd(Ac, compute_uv=False)[0] <= s[300] * (1 + 1e-10)
        K = init_koopman(520, 0.01, 0.99, np.random.default_rng(1))
        assert np.linalg.svd(K, compute_uv=False)[0] <= 0.99 + 1e-10

    @staticmethod
    def gram(shape, seed=2):
        X = np.random.default_rng(seed).standard_normal(shape)
        return X.T @ X

    def test_pinv_moore_penrose(self):
        # G = X^T X of a tall (6, 3) X has full rank 3; of a wide (4, 7) X,
        # rank 4 of 7
        for shape, want_rank in (((6, 3), 3), ((4, 7), 4)):
            G = self.gram(shape)
            P, rank = LA.pinv(G, return_rank=True)
            assert P.shape == G.shape and rank == want_rank
            assert np.allclose(G @ P @ G, G, atol=1e-10)
            assert np.allclose(P @ G @ P, P, atol=1e-10)
            assert np.allclose(G @ P, (G @ P).T, atol=1e-10)
            assert np.allclose(P @ G, (P @ G).T, atol=1e-10)

    def test_pinv_rank_deficient(self):
        # G = A^T A of a rank-1 (2, 3) A: the cut must zero the null directions
        u = np.array([[1.0], [2.0]])
        v = np.array([[3.0, 0.0, -1.0]])
        A = u @ v
        G = A.T @ A
        P = LA.pinv(G)
        assert np.allclose(G @ P @ G, G, atol=1e-12)
        assert np.linalg.matrix_rank(P) == 1
        P2, rank = LA.pinv(G, return_rank=True)
        assert rank == 1 and np.array_equal(P2, P)
        assert LA.pinv(np.zeros((3, 3)), return_rank=True)[1] == 0

    def test_pinv_zero_matrix(self):
        # no eigenvalue above 0: zeros and rank 0
        for G in (np.zeros((2, 2)), -np.eye(3), np.zeros((0, 0))):
            P, rank = LA.pinv(G, return_rank=True)
            assert P.shape == G.shape and rank == 0
            assert np.all(P == 0)

    @pytest.mark.parametrize("A, match", [
        (np.zeros((3, 2)), "must be square"),
        (np.ones((2, 3)), "must be square"),
        (np.array([[2.0, 1.0], [0.0, 2.0]]), "must be symmetric"),
        (np.array([[2.0, 1.0], [np.nextafter(1.0, 2.0), 2.0]]), "must be symmetric"),
        (np.zeros(4), "must be 2-D"),
    ], ids=["tall", "wide", "triangular", "one-ulp-off", "vector"])
    def test_pinv_refuses_non_symmetric_input(self, A, match):
        with pytest.raises(ValueError, match=match):
            LA.pinv(A)


class TestProjections:
    def test_clip_singular_values_identity(self):
        K = LA.clip_singular_values(np.eye(6), 0.99)
        assert np.array_equal(K, 0.99 * np.eye(6))

    def test_clip_noop_below_threshold(self):
        K0 = 0.5 * np.eye(3)
        K = LA.clip_singular_values(K0, 0.99)
        assert np.array_equal(K, K0)

    def test_clip_bounds_norm(self):
        K = np.random.default_rng(4).standard_normal((10, 10))
        Kc = LA.clip_singular_values(K, 0.7)
        assert np.linalg.svd(Kc, compute_uv=False)[0] <= 0.7 + 1e-12

    def test_spectral_scale(self):
        K = np.random.default_rng(5).standard_normal((9, 9))
        Kp = LA.spectral_scale(K, 0.95)
        s = np.linalg.svd(Kp, compute_uv=False)[0]
        assert s <= 0.95 + 1e-8
        # directionality preserved
        assert np.allclose(Kp / np.linalg.norm(Kp), K / np.linalg.norm(K))

    def test_spectral_scale_noop_when_contractive(self):
        K0 = 0.3 * np.eye(4)
        assert np.array_equal(LA.spectral_scale(K0, 0.95), K0)

    def test_max_abs_eigenvalue(self):
        K = np.diag([0.1, -0.8, 0.3])
        assert abs(LA.max_abs_eigenvalue(K) - 0.8) < 1e-12
