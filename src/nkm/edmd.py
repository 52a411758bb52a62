"""Classical EDMD baseline: RBF lifting, Gram-matrix solve, ridge readout.

Snapshot pairs are consecutive same-subject visits. The operator solves
    G = (1/m) X^T X,  A = (1/m) Y^T X,  K = A G^+        (alpha = 0)
                                        K = A (G + aI)^-1 (alpha > 0)
in the lifted space, so psi(x') ~= K psi(x). A ridge readout maps a lifted
visit to that visit's three scores; forecasting lifts the last input visit,
advances tau steps, and applies the readout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check_bool, check_int, check_number
from .data import VisitTable, Windows, visit_runs
from .linalg import pinv


@dataclass
class EdmdConfig:
    n_centers: int = 100
    include_identity: bool = True
    include_constant: bool = True
    alpha: float = 0.0            # Gram ridge in the operator solve
    readout_alpha: float = 1e-6   # ridge for the score readout
    seed: int = 0

    def __post_init__(self):
        check_int(self.n_centers, "n_centers", 0)
        check_bool(self.include_identity, "include_identity")
        check_bool(self.include_constant, "include_constant")
        check_number(self.alpha, "alpha", 0)
        check_number(self.readout_alpha, "readout_alpha", 0)
        check_int(self.seed, "seed", 0)
        if self.n_centers == 0 and not (self.include_identity
                                        or self.include_constant):
            raise ValueError("dictionary would be empty")


@dataclass
class RbfDictionary:
    centers: np.ndarray          # (n_c, n_features)
    bandwidth: float
    include_identity: bool
    include_constant: bool

    def __post_init__(self):
        check_number(self.bandwidth, "bandwidth", 0, lo_open=True)

    @property
    def lifted_dim(self) -> int:
        d = self.centers.shape[0]
        if self.include_identity:
            d += self.centers.shape[1]
        if self.include_constant:
            d += 1
        return d

    @property
    def identity_slice(self) -> slice:
        if not self.include_identity:
            raise ValueError("dictionary has no identity block")
        n_c = self.centers.shape[0]
        return slice(n_c, n_c + self.centers.shape[1])

    def lift(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.centers.shape[1]:
            raise ValueError("rows must match the dictionary's feature width")
        if not np.all(np.isfinite(X)):
            raise ValueError("lift input contains non-finite entries")
        # built in place in the output: a fit lifts thousands of rows, and
        # each (rows, centers) temporary costs the process fresh pages
        n_c, d = self.centers.shape
        out = np.empty((X.shape[0], self.lifted_dim))
        if n_c > 0:
            rbf = out[:, :n_c]
            np.add(np.sum(X * X, axis=1)[:, None],
                   np.sum(self.centers * self.centers, axis=1)[None, :], out=rbf)
            rbf -= 2.0 * X @ self.centers.T
            np.maximum(rbf, 0.0, out=rbf)
            rbf /= -2.0 * self.bandwidth ** 2
            np.exp(rbf, out=rbf)
        if self.include_identity:
            out[:, n_c:n_c + d] = X
        if self.include_constant:
            out[:, -1] = 1.0
        return out


def fit_dictionary(X: np.ndarray, cfg: EdmdConfig) -> RbfDictionary:
    """Seeded uniform subsample of rows as centers; median pairwise distance
    as bandwidth (1.0 when fewer than two distinct centers)."""
    X = np.asarray(X, dtype=np.float64)
    rng = np.random.default_rng(cfg.seed)
    n_c = min(cfg.n_centers, X.shape[0])
    if n_c > 0:
        idx = np.sort(rng.choice(X.shape[0], size=n_c, replace=False))
        centers = X[idx].copy()
    else:
        centers = np.zeros((0, X.shape[1]))
    bandwidth = 1.0
    if n_c >= 2:
        d2 = (np.sum(centers * centers, axis=1)[:, None]
              + np.sum(centers * centers, axis=1)[None, :]
              - 2.0 * centers @ centers.T)
        iu = np.triu_indices(n_c, k=1)
        med = float(np.median(np.sqrt(np.maximum(d2[iu], 0.0))))
        if med > 0.0:
            bandwidth = med
    return RbfDictionary(centers, bandwidth, cfg.include_identity,
                         cfg.include_constant)


def fit_edmd(X_lifted: np.ndarray, Y_lifted: np.ndarray, alpha: float = 0.0,
             return_rank: bool = False):
    """Operator from snapshot matrices with rows psi(x_i), psi(y_i). With
    return_rank, returns (K, rank): the numerical rank of G, the count of
    eigenvalues its pseudo-inverse keeps, or None when alpha > 0 and
    G + alpha I is inverted instead. Below the lifted dimension, K is the
    minimum-norm solution."""
    X_lifted = np.asarray(X_lifted, dtype=np.float64)
    Y_lifted = np.asarray(Y_lifted, dtype=np.float64)
    if X_lifted.shape != Y_lifted.shape or X_lifted.ndim != 2:
        raise ValueError("snapshot matrices must be matching 2-D arrays")
    m = X_lifted.shape[0]
    if m < 1:
        raise ValueError("need at least one snapshot pair")
    G = X_lifted.T @ X_lifted / m
    A = Y_lifted.T @ X_lifted / m
    if alpha > 0.0:
        K, rank = A @ np.linalg.inv(G + alpha * np.eye(G.shape[0])), None
    else:
        G_pinv, rank = pinv(G, return_rank=True)
        K = A @ G_pinv
    return (K, rank) if return_rank else K


class EdmdModel:
    """Fit on a preprocessed (finite-valued) visit table; forecast windows."""

    def __init__(self, cfg: EdmdConfig | None = None):
        self.cfg = cfg if cfg is not None else EdmdConfig()
        self.dictionary: RbfDictionary | None = None
        self.K: np.ndarray | None = None
        self.rank_: int | None = None            # of G, see `fit_edmd`
        self.readout: np.ndarray | None = None   # (lifted_dim, 3)

    def _require_fitted(self):
        if self.K is None:
            raise ValueError("EdmdModel is not fitted")

    def fit(self, table: VisitTable) -> "EdmdModel":
        if not np.all(np.isfinite(table.X)):
            raise ValueError("fit requires imputed (finite) features")
        self.dictionary = fit_dictionary(table.X, self.cfg)
        pairs, _, _ = visit_runs(table, 2)
        if not len(pairs):
            raise ValueError("no consecutive visit pairs in table")
        lifted = self.dictionary.lift(table.X)
        self.K, self.rank_ = fit_edmd(lifted[pairs[:, 0]], lifted[pairs[:, 1]],
                                      self.cfg.alpha, return_rank=True)
        keep = np.all(np.isfinite(table.Y), axis=1)
        if not np.any(keep):
            raise ValueError("no rows with observed targets for the readout")
        psi = lifted[keep]
        Y = table.Y[keep]
        reg = self.cfg.readout_alpha * np.eye(psi.shape[1])
        self.readout = np.linalg.solve(psi.T @ psi + reg, psi.T @ Y)
        return self

    def lift(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return self.dictionary.lift(X)

    def advance(self, psi: np.ndarray, tau: int = 1) -> np.ndarray:
        """tau applications of the operator to lifted rows."""
        self._require_fitted()
        check_int(tau, "tau", 0)
        out = np.asarray(psi, dtype=np.float64)
        for _ in range(tau):
            out = out @ self.K.T
        return out

    def forecast(self, x_last: np.ndarray, tau: int = 1) -> np.ndarray:
        """Targets read out after advancing the lifted last visit tau steps."""
        self._require_fitted()
        psi = self.dictionary.lift(np.atleast_2d(x_last))
        return self.advance(psi, tau) @ self.readout

    def predict(self, X: np.ndarray) -> np.ndarray:
        """(B, w, n_features) windows -> (B, 3) next-visit scores."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 3:
            raise ValueError("expected (B, w, n_features) windows")
        return self.forecast(X[:, -1, :], tau=1)

    def predict_windows(self, windows: Windows) -> np.ndarray:
        return self.predict(windows.X)

    def spectral_norm(self) -> float:
        self._require_fitted()
        return float(np.linalg.svd(self.K, compute_uv=False)[0])

