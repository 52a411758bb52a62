"""Theory harnesses and interpretation tools.

verify_bound checks the geometric rollout-error bound: if every one-step
lifted residual is at most eps_t and ||K||_2 = q < 1, the tau-step error is
at most eps_t (1 - q^tau)/(1 - q), with limit eps_t/(1 - q). verify_descent
runs full-batch alternating minimization with backtracking and checks the
loss trace never increases. export_latents and feature_importance produce
the plot-ready trajectory and importance tables.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import schema
from .checks import check_int, check_number
from .data import (VisitTable, Windows, materialize_fold, train_val_split,
                   visit_runs)
from .edmd import EdmdModel
from .linalg import max_abs_eigenvalue
from .model import ArchConfig, NkmModel, window_rows
from .optim import OptimConfig
from .tensor import no_grad
from .training import (LossConfig, composite_loss, evaluate_predictions,
                       koopman_grad_closed_form, model_covariances, train)

IMPORTANCE_METHOD = ("permutation importance: mean Pearson-r drop across the "
                     "three scores when one feature column is shuffled across "
                     "test windows; feature-attention weights reported alongside")
_MAX_HALVINGS = 40   # step halvings verify_descent tries before rejecting a step


# ---- geometric bound -------------------------------------------------------

def measure_eps(Z_t: np.ndarray, Z_next: np.ndarray, K: np.ndarray,
                C: np.ndarray | None = None) -> float:
    """Max one-step lifted residual ||z' - K z - c|| over the given pairs."""
    Z_t = np.atleast_2d(np.asarray(Z_t, dtype=np.float64))
    Z_next = np.atleast_2d(np.asarray(Z_next, dtype=np.float64))
    if Z_t.shape != Z_next.shape or Z_t.shape[0] < 1:
        raise ValueError("need matching non-empty pair matrices")
    step = Z_t @ K.T
    if C is not None:
        step = step + np.atleast_2d(C)
    resid = Z_next - step
    return float(np.max(np.sqrt(np.sum(resid * resid, axis=1))))


def geometric_bound(eps_tilde: float, norm_k: float, tau: int) -> float:
    """eps_t (1 - q^tau)/(1 - q); defined for q in [0, 1) and tau >= 1."""
    if not (0.0 <= norm_k < 1.0):
        raise ValueError("bound requires ||K||_2 < 1")
    check_int(tau, "tau", 1)
    check_number(eps_tilde, "eps_tilde", 0)
    # grouping the series factor keeps bound(1) == eps_tilde bit-exact
    return eps_tilde * ((1.0 - norm_k ** tau) / (1.0 - norm_k))


def bound_limit(eps_tilde: float, norm_k: float) -> float:
    if not (0.0 <= norm_k < 1.0):
        raise ValueError("bound requires ||K||_2 < 1")
    return eps_tilde / (1.0 - norm_k)


@dataclass
class BoundReport:
    eps_tilde: float
    norm_k: float
    lambda_max: float
    taus: list[int]
    empirical: list[float]
    bound: list[float]
    limit: float
    passed: bool

    def to_dict(self) -> dict:
        return {"eps_tilde": self.eps_tilde, "norm_k": self.norm_k,
                "lambda_max": self.lambda_max, "taus": self.taus,
                "empirical": self.empirical, "bound": self.bound,
                "limit": self.limit, "passed": self.passed}


def _bound_runs(model: NkmModel | EdmdModel, table: VisitTable
                ) -> tuple[np.ndarray, np.ndarray]:
    """(rows, seq): the `visit_runs` rows of every lifted state, subject by
    subject in visit order, and each state's subject. An NKM state is a
    window, ending at each visit that has w - 1 before it; an EDMD state is
    one visit of a subject with two or more."""
    if isinstance(model, NkmModel):
        if not np.all(np.isfinite(table.X)):
            raise ValueError("bound harness requires imputed (finite) features")
        rows, seq, _ = visit_runs(table, model.arch.window)
        if not len(rows):
            raise ValueError("no subject has enough visits for one window")
        return rows, seq
    model._require_fitted()
    rows, seq, _ = visit_runs(table, 1)
    paired = np.bincount(seq)[seq] >= 2
    if not paired.any():
        raise ValueError("no subject has two visits")
    return rows[paired], seq[paired]


def _bound_states(model: NkmModel | EdmdModel, table: VisitTable,
                  rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(Z, C): the lifted states of `_bound_runs` rows. NKM states are the
    refined final latents and controls of the windows, from one latent pass;
    EDMD states lift the visits, and C is None."""
    if isinstance(model, NkmModel):
        _, z_last, c = model.latents(table.X, rows)
        return z_last, c
    return model.lift(table.X[rows[:, 0]]), None


def verify_bound(model: NkmModel | EdmdModel, table: VisitTable,
                 tau_max: int = 20) -> BoundReport:
    """Measure eps_t on the data, then assert the tau-step rollout error
    stays under the geometric bound for every tau <= tau_max. NKM rollouts
    reuse the measured per-step controls; EDMD rollouts are autonomous.
    The premises, ||K||_2 < 1 and a subject with tau_max + 1 states, are
    checked before any state is lifted."""
    check_int(tau_max, "tau_max", 1)
    rows, seq = _bound_runs(model, table)
    K = model.K.data if isinstance(model, NkmModel) else model.K
    norm_k = float(np.linalg.svd(K, compute_uv=False)[0])
    if norm_k >= 1.0:
        raise ValueError(f"bound requires ||K||_2 < 1, measured {norm_k:.6g}")
    longest = int(np.bincount(seq).max())
    if longest < tau_max + 1:
        raise ValueError(f"tau_max={tau_max} needs a sequence of "
                         f"{tau_max + 1} lifted states; longest is {longest}")
    Z, C = _bound_states(model, table, rows)

    # pred[k] is state k advanced tau steps, for every k with k + tau in the
    # same subject; those k shrink as tau grows. The tau = 1 step is the
    # one-step residual, so empirical[0] is eps_t.
    pred = Z.copy()
    empirical = []
    for tau in range(1, tau_max + 1):
        k = np.flatnonzero(seq[tau:] == seq[:len(seq) - tau])
        step = pred[k] @ K.T
        if C is not None:
            step += C[k + tau - 1]
        pred[k] = step
        err = Z[k + tau] - step
        empirical.append(float(np.max(np.sqrt(np.sum(err * err, axis=1)))))

    eps = empirical[0]
    taus = list(range(1, tau_max + 1))
    bounds = [geometric_bound(eps, norm_k, t) for t in taus]
    passed = all(e <= b for e, b in zip(empirical, bounds))
    return BoundReport(eps, norm_k, max_abs_eigenvalue(K), taus, empirical,
                       bounds, bound_limit(eps, norm_k), passed)


# ---- descent harness -------------------------------------------------------

@dataclass
class DescentReport:
    trace: list[float]
    passed: bool
    theta_violations: int
    k_violations: int
    final_theta_step: float
    final_k_step: float

    def to_dict(self) -> dict:
        return {"trace": self.trace, "passed": self.passed,
                "theta_violations": self.theta_violations,
                "k_violations": self.k_violations,
                "final_theta_step": self.final_theta_step,
                "final_k_step": self.final_k_step}


def verify_descent(model: NkmModel, windows: Windows,
                   loss_cfg: LossConfig | None = None, iters: int = 50,
                   theta_step: float = 1e-2, k_step: float = 0.5,
                   backtracking: bool = True, slack: float = 1e-9) -> DescentReport:
    """Full-batch alternating minimization. Each half-step is accepted only
    if the composite loss does not increase; on violation the step is halved
    and retried (when backtracking is on). The huge-step no-backtracking
    variant is the negative control and is expected to fail."""
    check_int(iters, "iters", 1)
    check_number(theta_step, "theta_step", 0, lo_open=True)
    check_number(k_step, "k_step", 0, lo_open=True)
    if not len(windows):
        raise ValueError("verify_descent needs at least one window")
    loss_cfg = loss_cfg if loss_cfg is not None else LossConfig()
    X, y = windows.X, windows.y

    def loss_value() -> float:
        # backtracking probes oversized steps on purpose; overflow there is
        # data, not an error
        try:
            with np.errstate(over="ignore", invalid="ignore"), no_grad():
                total, _, _ = composite_loss(model, X, y, loss_cfg)
            return float(total.data)
        except RuntimeError:
            return math.inf

    def loss_with_grads():
        model.params.zero_grad()
        total, _, fwd = composite_loss(model, X, y, loss_cfg)
        total.backward()
        return float(total.data), fwd

    trace = [loss_value()]
    th_viol = k_viol = 0
    theta_names = [n for n in model.params.names() if n != "koopman.K"]

    for _ in range(iters):
        if not math.isfinite(trace[-1]):
            trace.append(trace[-1])     # already diverged; freeze the trace
            continue

        # theta half-step: plain gradient descent on everything but K
        cur, _ = loss_with_grads()
        grads = {n: model.params[n].grad.copy() for n in theta_names
                 if model.params[n].grad is not None}
        saved = {n: model.params[n].data.copy() for n in grads}
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            for n, g in grads.items():
                np.subtract(saved[n], theta_step * g, out=model.params[n].data)
            new = loss_value()
            if new <= cur or not backtracking:
                accepted = True
                break
            theta_step *= 0.5
        if not accepted:
            for n in grads:
                model.params[n].data[...] = saved[n]
        # the loss at the parameters now held: the accepted probe's, or the
        # loss the trace already records for the restored ones
        after_theta = new if accepted else trace[-1]
        if after_theta > cur:
            th_viol += 1

        # K half-step: closed-form covariance gradient, then projection
        with np.errstate(over="ignore", invalid="ignore"):
            covs = model_covariances(model, X)
            gk = koopman_grad_closed_form(model.K.data, covs,
                                          loss_cfg.lambda_koop)
        k_saved = model.K.data.copy()
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            np.subtract(k_saved, k_step * gk, out=model.K.data)
            if np.all(np.isfinite(model.K.data)):
                model.project_spectral(loss_cfg.rho)
                new = loss_value()
            else:
                new = math.inf      # diverged probe point, not an error
            if new <= after_theta or not backtracking:
                accepted = True
                break
            model.K.data[...] = k_saved
            k_step *= 0.5
        if not accepted:
            model.K.data[...] = k_saved
        final = new if accepted else after_theta
        if final > after_theta:
            k_viol += 1
        trace.append(final)

    ok = all(math.isfinite(v) for v in trace)
    ok = ok and all(b <= a + slack for a, b in zip(trace, trace[1:]))
    return DescentReport(trace, ok, th_viol, k_viol, theta_step, k_step)


# ---- latent export ---------------------------------------------------------

def rollout_latents(model: NkmModel, windows: Windows, steps: int = 5
                    ) -> np.ndarray:
    """(n, steps+1, d_z): each window's refined latent advanced by
    z <- K z + c, reusing the window's own control at every step."""
    check_int(steps, "steps", 0)
    _, z, c = model.latents(*window_rows(windows.X))
    K = model.K.data
    out = np.empty((z.shape[0], steps + 1, z.shape[1]))
    out[:, 0] = z
    for j in range(steps):
        z = z @ K.T + c
        out[:, j + 1] = z
    return out


def fit_pca(Z: np.ndarray, n_components: int = 2
            ) -> tuple[np.ndarray, np.ndarray]:
    """(mean, projection): columns of the projection are orthonormal."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] < n_components:
        raise ValueError("need a (n, d) matrix with d >= n_components")
    mean = Z.mean(axis=0)
    _, _, vt = np.linalg.svd(Z - mean, full_matrices=True)
    return mean, vt[:n_components].T


def export_latents(model: NkmModel, windows: Windows,
                   train_windows: Windows | None = None,
                   rollout_steps: int = 5,
                   labels: dict[str, str] | None = None) -> list[dict]:
    """Trajectory table: one row per (window, step), projected to the top-2
    principal axes of the training latents."""
    ref = train_windows if train_windows is not None else windows
    mean, proj = fit_pca(rollout_latents(model, ref, 0)[:, 0, :])
    traj = rollout_latents(model, windows, rollout_steps)
    rows = []
    for i in range(traj.shape[0]):
        sid = windows.subjects[i]
        for step in range(rollout_steps + 1):
            p = (traj[i, step] - mean) @ proj
            rows.append({"subject_id": sid,
                         "window_index": int(windows.starts[i]),
                         "step": step, "pc1": float(p[0]), "pc2": float(p[1]),
                         "label": (labels or {}).get(sid, "")})
    return rows


def write_latents_csv(path: str | Path, rows: list[dict]) -> None:
    cols = ["subject_id", "window_index", "step", "pc1", "pc2", "label"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for r in rows:
            writer.writerow([r["subject_id"], r["window_index"], r["step"],
                             format(r["pc1"], ".17g"), format(r["pc2"], ".17g"),
                             r["label"]])


# ---- feature importance ----------------------------------------------------

@dataclass
class ImportanceReport:
    method: str
    features: list[str]
    per_target: dict[str, list[float]]   # mean r-drop per feature, per score
    mean_importance: list[float]
    top10_frequency: list[float]
    beta_mean: dict[str, float]
    runs: int
    seed: int

    def to_dict(self) -> dict:
        return {"method": self.method, "features": self.features,
                "per_target": self.per_target,
                "mean_importance": self.mean_importance,
                "top10_frequency": self.top10_frequency,
                "beta_mean": self.beta_mean, "runs": self.runs,
                "seed": self.seed}


def feature_importance(table: VisitTable, runs: int = 50, seed: int = 0,
                       arch: ArchConfig | None = None,
                       optim_cfg: OptimConfig | None = None,
                       loss_cfg: LossConfig | None = None,
                       model_factory=None, train_models: bool = True,
                       test_frac: float = 0.2) -> ImportanceReport:
    """Permutation importance over reseeded train/eval runs. Each run holds
    out a fresh subject split, trains (unless train_models is off), then
    measures the Pearson-r drop from shuffling one feature column across the
    test windows. A run's model is NkmModel(arch) or model_factory's; the
    window length and the beta group names are read from that model."""
    check_int(runs, "runs", 1)
    check_number(test_frac, "test_frac", 0, 1, lo_open=True, hi_open=True)
    arch = arch if arch is not None else ArchConfig()
    features = schema.FEATURE_COLUMNS
    n_f = len(features)
    targets = schema.TARGET_COLUMNS
    drop_sum = {t: np.zeros(n_f) for t in targets}
    top10_hits = np.zeros(n_f)
    beta_sum = 0.0

    for r in range(runs):
        rs = seed + r
        model = model_factory(rs) if model_factory is not None \
            else NkmModel(arch, seed=rs)
        _, test_subjects = train_val_split(table.unique_subjects(),
                                           val_frac=test_frac, seed=rs)
        fold = materialize_fold(table, test_subjects, seed=rs,
                                w=model.arch.window)
        if train_models:
            train(model, fold.train, fold.val, optim_cfg, loss_cfg, seed=rs)

        # `predict` is this forward with no tape, so the baseline and the
        # permuted predictions come from one path
        with no_grad():
            base = model.forward(fold.test.X)
        beta_sum += base.beta.mean(axis=0)
        base_r = evaluate_predictions(fold.test.y, base.pred.data,
                                      targets).pearson

        rng = np.random.default_rng(rs)
        run_drops = np.zeros(n_f)
        for f in range(n_f):
            perm = rng.permutation(len(fold.test))
            Xp = fold.test.X.copy()
            Xp[:, :, f] = fold.test.X[perm][:, :, f]
            m = evaluate_predictions(fold.test.y, model.predict(Xp), targets)
            drops = [base_r[t] - m.pearson[t] for t in targets]
            for t, d in zip(targets, drops):
                drop_sum[t][f] += d
            run_drops[f] = float(np.mean(drops))
        top = np.argsort(-run_drops, kind="stable")[:10]
        top10_hits[top] += 1.0

    per_target = {t: (drop_sum[t] / runs).tolist() for t in targets}
    mean_imp = (sum(drop_sum[t] for t in targets) / (runs * len(targets)))
    return ImportanceReport(IMPORTANCE_METHOD, list(features), per_target,
                            mean_imp.tolist(), (top10_hits / runs).tolist(),
                            {g: float(b) for g, b in
                             zip(model.arch.groups, beta_sum / runs)},
                            runs, seed)
