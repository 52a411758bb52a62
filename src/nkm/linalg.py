"""Dense linear-algebra helpers: spectral-norm estimation, singular-value
clipping, the pseudoinverse of a Gram matrix.

Every routine calls numpy.linalg (LAPACK) with no size cap, and the
symmetric eigensolver does the work wherever a Gram matrix does: `pinv`
inverts the eigenvalues of its symmetric positive semi-definite input
(EDMD's G = X^T X / m, the training C_zz), and the exact top singular value
comes from the smaller Gram matrix of the input. Each costs about half a
full SVD or less. An SVD stays where its factors or its exact digits are
needed: `clip_singular_values` rescales the singular values, so it needs U
and V; `analysis.verify_bound`'s `norm_k` is checked bit for bit against
an SVD reference in the tests, and `EdmdModel.spectral_norm` reads the same
quantity the same way. Power iteration is hand-rolled: a seeded block
subspace iteration on K^T K with a Rayleigh-Ritz extract (an SVD of the
n x 8 block), which converges far faster than the single-vector recurrence
and always estimates from below.
"""
from __future__ import annotations

import math

import numpy as np

from .checks import check_int
from .tensor import Tensor, _make, _unbroadcast, as_tensor

_BLOCK = 8           # columns of the subspace in power_iteration_norm
_TAPE_ITERS = 10     # Gram iterations of spectral_norm_differentiable
_RCOND = 1e-12       # relative eigenvalue cut of pinv


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
    check_int(iters, "iters", 1)
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
    """Single-vector Gram power iteration as one tape node, _TAPE_ITERS steps
    from a fixed unit vector (default_rng(0)).

    Returns ||K v_p||_2 as a scalar tensor. The forward runs the iteration in
    numpy and keeps its iterates; the backward differentiates through the
    dependence of v_p on K. Both take the IEEE steps of the iteration written
    with the tape's matmul, transpose, div and l2_norm ops, and the backward
    adds K's twelve gradient terms one by one in the tape's order, so the
    value and K's gradient are that composition's byte for byte. (The
    composed nodes stored their gradients as 0.0 + g; that changes only the
    sign of a zero, which K's own first store erases, so it is skipped.)
    """
    K = as_tensor(K)
    k = K.data
    v = np.random.default_rng(0).standard_normal((k.shape[1], 1))
    v /= np.linalg.norm(v)
    vs, us, ws, norms = [v], [], [], []
    for _ in range(_TAPE_ITERS):
        u = k @ v
        w = k.T @ u
        norm = np.sqrt((w * w).sum())
        v = w / norm
        us.append(u)
        ws.append(w)
        norms.append(norm)
        vs.append(v)
    u = k @ v
    out = np.sqrt((u * u).sum())

    def l2_norm_grad(g, x, norm):
        # the sqrt, sum and square steps of l2_norm
        return (g * 0.5 / norm * 2.0) * x

    def backward(g):
        g_u = l2_norm_grad(g, u, out)
        K._accumulate(g_u @ vs[-1].T)
        g_kt = None                       # the gradient of K^T
        for i in reversed(range(_TAPE_ITERS)):
            g_v = k.T @ g_u
            w, norm = ws[i], norms[i]
            # v = w / norm: w's share, then norm's share through l2_norm(w)
            g_w = g_v / norm
            g_norm = _unbroadcast(-g_v * w / (norm * norm), ())
            g_w += l2_norm_grad(g_norm, w, norm)
            c = g_w @ us[i].T
            if g_kt is None:
                g_kt = c
            else:
                g_kt += c
            g_u = k @ g_w
            if i:
                K._accumulate(g_u @ vs[i].T)
        K._accumulate(g_kt.T)
        K._accumulate(g_u @ vs[0].T)

    return _make(out, (K,), backward)


def pinv(A: np.ndarray, return_rank: bool = False):
    """Moore-Penrose pseudoinverse of a symmetric positive semi-definite A (a
    Gram matrix), from one eigensolve: eigenvalues <= 1e-12 * lambda_max drop
    to 0, and every one does when lambda_max <= 0. With return_rank, returns
    (pinv, rank): the rank is the number of eigenvalues kept."""
    A = check_matrix(A, "A", square=True)
    if not np.array_equal(A, A.T):
        raise ValueError("A must be symmetric")
    w, V = np.linalg.eigh(A)
    keep = w > _RCOND * np.max(w, initial=0.0)
    V = V[:, keep]
    P = (V / w[keep]) @ V.T
    return (P, int(np.count_nonzero(keep))) if return_rank else P


def clip_singular_values(K: np.ndarray, smax: float) -> np.ndarray:
    """Replace each singular value s by min(s, smax). No-op matrices pass through."""
    K = check_matrix(K, "K")
    U, s, Vt = np.linalg.svd(K, full_matrices=False)
    if s.size == 0 or s[0] <= smax:
        return K.copy()
    return (U * np.minimum(s, smax)) @ Vt


def top_singular_value(A: np.ndarray) -> float:
    """sigma_max(A), as the square root of the top eigenvalue of A A^T or
    A^T A, whichever is smaller. The eigenvalue is clamped at 0, since
    rounding can leave a zero Gram matrix's top eigenvalue just below it."""
    A = check_matrix(A, "A")
    if A.size == 0:
        return 0.0
    gram = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def spectral_scale(K: np.ndarray, rho: float) -> np.ndarray:
    """Hard projection K / max(1, ||K||_2 / rho), with the norm taken exactly
    by `top_singular_value`."""
    K = check_matrix(K, "K", square=True)
    smax = top_singular_value(K)
    if smax <= rho:
        return K.copy()
    return K / (smax / rho)


def max_abs_eigenvalue(K: np.ndarray) -> float:
    """Spectral radius |lambda|_max (diagnostic)."""
    K = check_matrix(K, "K", square=True)
    return float(np.max(np.abs(np.linalg.eigvals(K))))
