"""Dense linear-algebra helpers: spectral-norm estimation, SVD, pseudoinverse.

SVD and pinv call numpy.linalg (LAPACK) with no size cap. Power iteration
is hand-rolled: a seeded block subspace iteration on K^T K with a
Rayleigh-Ritz extract, which converges far faster than the single-vector
recurrence and always estimates from below.
"""
from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor, div, l2_norm, matmul, transpose

_BLOCK = 8           # columns of the subspace in power_iteration_norm
_TAPE_ITERS = 10     # Gram iterations of spectral_norm_differentiable


def check_matrix(a: np.ndarray, name: str = "matrix", square: bool = False) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    if square and a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def power_iteration_norm(K: np.ndarray, iters: int = 10, seed: int = 0) -> float:
    """Estimate the spectral norm of K.

    Block subspace iteration on the Gram operator with QR re-orthonormalization,
    started from a seeded Gaussian block of _BLOCK columns. The returned value
    is sigma_max(K @ V) for orthonormal V, hence never exceeds the true norm.
    """
    K = check_matrix(K, "K")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    n = K.shape[1]
    b = min(_BLOCK, n)
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n, b))
    V, _ = np.linalg.qr(V)
    for _ in range(iters):
        W = K.T @ (K @ V)
        if not np.any(W):
            return 0.0
        V, _ = np.linalg.qr(W)
    s = np.linalg.svd(K @ V, compute_uv=False)
    return float(s[0])


def spectral_norm_differentiable(K: Tensor) -> Tensor:
    """Single-vector Gram power iteration on the autodiff tape, _TAPE_ITERS
    steps from a fixed unit vector (default_rng(0)).

    Returns ||K v_p||_2 as a scalar tensor; the whole iteration stays on the
    tape so gradients account for the dependence of v_p on K.
    """
    K = as_tensor(K)
    n = K.data.shape[1]
    v0 = np.random.default_rng(0).standard_normal((n, 1))
    v0 /= np.linalg.norm(v0)
    v = Tensor(v0)
    Kt = transpose(K)
    for _ in range(_TAPE_ITERS):
        w = matmul(Kt, matmul(K, v))
        v = div(w, l2_norm(w))
    return l2_norm(matmul(K, v))


def pinv(A: np.ndarray, rcond: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudoinverse; singular values <= rcond * sigma_max drop to 0."""
    A = check_matrix(A, "A")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((A.shape[1], A.shape[0]))
    cut = rcond * s[0]
    inv = np.where(s > cut, 1.0 / np.where(s > cut, s, 1.0), 0.0)
    return (Vt.T * inv) @ U.T


def clip_singular_values(K: np.ndarray, smax: float) -> np.ndarray:
    """Replace each singular value s by min(s, smax). No-op matrices pass through."""
    K = check_matrix(K, "K")
    U, s, Vt = np.linalg.svd(K, full_matrices=False)
    if s.size == 0 or s[0] <= smax:
        return K.copy()
    return (U * np.minimum(s, smax)) @ Vt


def spectral_scale(K: np.ndarray, rho: float) -> np.ndarray:
    """Hard projection K / max(1, ||K||_2 / rho), with the norm taken exactly."""
    K = check_matrix(K, "K", square=True)
    s = np.linalg.svd(K, compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    if smax <= rho:
        return K.copy()
    return K / (smax / rho)


def max_abs_eigenvalue(K: np.ndarray) -> float:
    """Spectral radius |lambda|_max (diagnostic)."""
    K = check_matrix(K, "K", square=True)
    return float(np.max(np.abs(np.linalg.eigvals(K))))
