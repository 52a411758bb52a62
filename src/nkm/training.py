"""Composite loss, covariance-form Koopman updates, training loops, metrics.

Training batches are whole subjects: each epoch shuffles the train subjects
and closes a batch at the first subject that brings it to at least
batch_size windows (`subject_batches`), so a batch holds every window of its
subjects, and the model encodes each of their visits once per step.

Loss per batch of windows:
    L = L_pred + lambda * L_koop + R_spec
    L_pred   mean over windows of the squared prediction error
    L_koop   mean over in-window transitions of ||z' - K z - c||^2
    R_spec   eta * max(0, ||K||^2 - rho^2)^2 with a differentiable
             10-iteration power-iteration norm estimate

Two modes: "joint" puts every parameter under AdamW; "alternating" runs the
AdamW step on everything except K, then moves K along the closed-form
covariance gradient of lambda * L_koop and projects it to ||K||_2 <= rho.

`train` selects on validation loss with one best-epoch record: the
epochs since the best one decide the plateau lr decay and the early stop,
and the best epoch's parameters are restored at the end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import schema
from .checks import check_choice, check_number
from .data import FoldData, VisitTable, Windows, materialize_fold, subject_kfold
from .edmd import EdmdConfig, EdmdModel
from .linalg import (pinv, spectral_norm_differentiable,
                     top_singular_value)
from .model import (ABLATION_SETUPS, AblationFlags, ArchConfig, NkmModel,
                    transition_rows, window_rows)
from .optim import AdamW, OptimConfig, clip_global_norm
from .tensor import (Tensor, add, matmul, mul, no_grad, relu, reshape, square,
                     sub, take_rows, transpose, tsum)


@dataclass
class LossConfig:
    lambda_koop: float = 0.1
    eta: float = 0.01
    rho: float = 0.95

    def __post_init__(self):
        check_number(self.lambda_koop, "lambda_koop", 0)
        check_number(self.eta, "eta", 0)
        check_number(self.rho, "rho", 0, lo_open=True)


def composite_loss(model: NkmModel, X: np.ndarray, y: np.ndarray,
                   cfg: LossConfig, train: bool = False,
                   rng: np.random.Generator | None = None):
    """Returns (total Tensor, parts dict, ForwardOut).

    The reported parts satisfy total == (L_pred + lambda*L_koop) + R_spec
    bitwise, in that association order.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != X.shape[0]:
        raise ValueError("targets must be (B, n_targets) aligned with windows")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets contain non-finite entries")
    fwd = model.forward(X, train=train, rng=rng)

    diff = sub(fwd.pred, Tensor(y))
    l_pred = mul(tsum(square(diff)), 1.0 / X.shape[0])

    B = X.shape[0]
    prev, nxt = transition_rows(fwd.z.data.shape[0], B)
    pairs = (-1, B, model.arch.d_z)              # (transition, window, d_z)
    step = add(reshape(matmul(take_rows(fwd.z, prev), transpose(model.K)), pairs),
               fwd.control)
    r = sub(reshape(take_rows(fwd.z, nxt), pairs), step)
    l_koop = mul(tsum(square(r)), 1.0 / (r.data.shape[0] * B))   # B*(w-1) pairs

    eta = 0.0 if model.ablation.no_spectral_reg else cfg.eta
    if eta > 0.0:
        sig = spectral_norm_differentiable(model.K)
        hinge = relu(sub(square(sig), cfg.rho ** 2))
        r_spec = mul(square(hinge), eta)
    else:
        r_spec = Tensor(0.0)

    total = add(add(l_pred, mul(l_koop, cfg.lambda_koop)), r_spec)
    parts = {"L_pred": float(l_pred.data), "L_koop": float(l_koop.data),
             "R_spec": float(r_spec.data)}
    for name, val in parts.items():
        if not math.isfinite(val):
            raise RuntimeError(f"non-finite loss component {name}")
    return total, parts, fwd


# ---- covariance-form updates ---------------------------------------------

def koopman_covariances(z: np.ndarray, control: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C_zz, C_z'z, C_cz) of the in-window transitions of visit-major
    latents z (w*B, d_z) under per-window controls (B, d_z), each averaged
    over the M = B*(w-1) pairs."""
    B = control.shape[0]
    prev, nxt = transition_rows(z.shape[0], B)
    Zt, Zn = z[prev], z[nxt]
    M = Zt.shape[0]
    Cc = np.tile(control, (M // B, 1))
    return Zt.T @ Zt / M, Zn.T @ Zt / M, Cc.T @ Zt / M


def model_covariances(model: NkmModel, X: np.ndarray):
    """`koopman_covariances` of the eval-mode latents of windows X."""
    z, _, c = model.latents(*window_rows(X))
    return koopman_covariances(z, c)


def koopman_grad_closed_form(K: np.ndarray, covs, lambda_koop: float) -> np.ndarray:
    """d(lambda * L_koop)/dK = 2 lambda (K C_zz + C_cz - C_z'z)."""
    c_zz, c_nz, c_cz = covs
    return 2.0 * lambda_koop * (K @ c_zz + c_cz - c_nz)


def koopman_fixed_point(covs) -> np.ndarray:
    """K* = (C_z'z - C_cz) C_zz^+, the stationary point of L_koop."""
    c_zz, c_nz, c_cz = covs
    return (c_nz - c_cz) @ pinv(c_zz)


def _koopman_step(top: float, lambda_koop: float) -> float:
    """0.5 / (lambda * top) for top = lambda_max(C_zz): the inverse of the
    Lipschitz constant 2 lambda top of the closed-form gradient, or 0 where
    either factor is 0."""
    if lambda_koop <= 0.0 or top <= 0.0:
        return 0.0
    return 0.5 / (lambda_koop * top)


def _safe_koopman_step_size(c_zz: np.ndarray, lambda_koop: float) -> float:
    """`_koopman_step` of C_zz, whose top singular value is its top
    eigenvalue because it is symmetric positive semi-definite."""
    return _koopman_step(top_singular_value(c_zz), lambda_koop)


def _transition_step_size(z: np.ndarray, B: int, lambda_koop: float) -> float:
    """`_koopman_step` of the C_zz of visit-major latents z (w*B, d_z), read
    as sigma_max(Z_t)^2 / M from the M = B*(w-1) transition rows Z_t, so
    the eigensolve is min(M, d_z) on a side rather than d_z."""
    Zt = z[transition_rows(z.shape[0], B)[0]]
    return _koopman_step(top_singular_value(Zt) ** 2 / Zt.shape[0], lambda_koop)


# ---- training loop --------------------------------------------------------

TRAIN_MODES = ("joint", "alternating")


def check_setups(setups: list[str], name: str = "setups"
                 ) -> list[AblationFlags]:
    """The flags of each ablation setup in `setups`, refusing an empty list
    and a name that is unknown or given twice."""
    if not setups:
        raise ValueError(f"{name} must name at least one setup")
    for setup in setups:
        if setups.count(setup) > 1:
            raise ValueError(f"{name} name {setup!r} more than once")
    return [AblationFlags.from_name(setup) for setup in setups]


@dataclass
class TrainResult:
    model: NkmModel
    history: list[dict]
    best_epoch: int
    best_val: float
    mode: str
    seed: int

    def report(self) -> dict:
        return {"mode": self.mode, "seed": self.seed, "best_epoch": self.best_epoch,
                "best_val": self.best_val, "epochs": self.history}


def _val_loss(model: NkmModel, windows: Windows, cfg: LossConfig) -> float:
    with no_grad():
        total, _, _ = composite_loss(model, windows.X, windows.y, cfg)
    return float(total.data)


def subject_batches(subjects: list[str], batch_size: int,
                    rng: np.random.Generator) -> list[np.ndarray]:
    """One epoch's batches, as indices into windows whose subjects are
    `subjects`: the subjects in an order drawn from rng, each batch closed
    at the first subject that brings it to at least batch_size windows.
    Every window lands in one batch with all of its subject's windows, in
    their order in `subjects`; all batches but the last hold batch_size or
    more windows, so there are at most ceil(n / batch_size) of them."""
    code: dict[str, int] = {}     # first-appearance position
    ids = np.array([code.setdefault(s, len(code)) for s in subjects],
                   dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    groups = np.split(order, np.cumsum(np.bincount(ids))[:-1])
    batches, cur, count = [], [], 0
    for g in rng.permutation(len(code)):
        cur.append(groups[g])
        count += len(groups[g])
        if count >= batch_size:
            batches.append(np.concatenate(cur))
            cur, count = [], 0
    if cur:
        batches.append(np.concatenate(cur))
    return batches


def train(model: NkmModel, train_windows: Windows, val_windows: Windows,
          optim_cfg: OptimConfig | None = None, loss_cfg: LossConfig | None = None,
          mode: str = "joint", seed: int = 0, project_final: bool = True
          ) -> TrainResult:
    """Minibatch training over `subject_batches`, selected on validation
    loss. One record, the best epoch so far (a strictly lower loss), drives
    three things: its parameters are restored at the end; the lr is
    multiplied by plateau_factor at every (plateau_patience + 1)-th epoch
    since it; and training stops at the early_stop_patience-th epoch since
    it (the first, when that is 0). Each history record holds the epoch's
    mean loss parts and pre-clip gradient norm over its steps, the step
    count, the validation loss and the lr the epoch ran with.
    Deterministic given (seed, data)."""
    check_choice(mode, "mode", TRAIN_MODES)
    if len(train_windows) == 0 or len(val_windows) == 0:
        raise ValueError("train and val window sets must be non-empty")
    if len(train_windows.subjects) != len(train_windows):
        raise ValueError("train windows need one subject per window")
    optim_cfg = optim_cfg if optim_cfg is not None else OptimConfig()
    loss_cfg = loss_cfg if loss_cfg is not None else LossConfig()

    opt = AdamW(model.params, optim_cfg)
    rng = np.random.default_rng(seed)
    history: list[dict] = []
    best_params = model.params.copy_values()
    best_val = np.inf
    best_epoch = -1

    # alternating mode moves K by its closed form: keep it off the tape
    k_requires_grad = model.K.requires_grad
    if mode == "alternating":
        model.K.requires_grad = False
    try:
        for epoch in range(optim_cfg.epochs):
            batches = subject_batches(train_windows.subjects,
                                      optim_cfg.batch_size, rng)
            sums = {"L_pred": 0.0, "L_koop": 0.0, "R_spec": 0.0, "grad_norm": 0.0}
            for idx in batches:
                model.params.zero_grad()
                try:
                    total, parts, fwd = composite_loss(
                        model, train_windows.X[idx], train_windows.y[idx],
                        loss_cfg, train=True, rng=rng)
                except RuntimeError as err:
                    raise RuntimeError(f"epoch {epoch}: {err}") from None
                total.backward()
                parts["grad_norm"] = clip_global_norm(model.params,
                                                      optim_cfg.clip_norm)
                opt.step()
                if mode == "alternating":
                    covs = koopman_covariances(fwd.z.data, fwd.control.data)
                    g = koopman_grad_closed_form(model.K.data, covs,
                                                 loss_cfg.lambda_koop)
                    model.K.data -= _transition_step_size(
                        fwd.z.data, len(idx), loss_cfg.lambda_koop) * g
                    model.project_spectral(loss_cfg.rho)
                for k in sums:
                    sums[k] += parts[k]

            val = _val_loss(model, val_windows, loss_cfg)
            history.append({"epoch": epoch,
                            **{k: v / len(batches) for k, v in sums.items()},
                            "steps": len(batches), "val_loss": val,
                            "lr": opt.lr})
            if val < best_val:
                best_val = val
                best_epoch = epoch
                best_params = model.params.copy_values()
            stale = epoch - best_epoch          # epochs since the best one
            if stale > 0 and stale % (optim_cfg.plateau_patience + 1) == 0:
                opt.lr *= optim_cfg.plateau_factor
            if stale >= max(1, optim_cfg.early_stop_patience):
                break
    finally:
        model.K.requires_grad = k_requires_grad

    model.params.load_values(best_params)
    if project_final:
        model.project_spectral(loss_cfg.rho)
    return TrainResult(model, history, best_epoch, best_val, mode, seed)


# ---- evaluation -----------------------------------------------------------

def _rank_average_ties(v: np.ndarray) -> np.ndarray:
    """1-based ranks of v, each run of equal values sharing the mean rank of
    its sorted positions i..j, (i + j) / 2 + 1. Every NaN is its own run."""
    idx = np.argsort(v, kind="stable")
    counts = np.unique(v[idx], return_counts=True, equal_nan=False)[1]
    last = np.cumsum(counts) - 1
    first = last - counts + 1
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[idx] = np.repeat((first + last) / 2.0 + 1.0, counts)
    return ranks


def pearson(x: np.ndarray, y: np.ndarray) -> tuple[float, bool]:
    """(coefficient, degenerate). Constant input reports 0 with the flag set."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        return 0.0, True
    dx = x - x.mean()
    dy = y - y.mean()
    sx = np.sqrt(np.sum(dx * dx))
    sy = np.sqrt(np.sum(dy * dy))
    if sx == 0.0 or sy == 0.0:
        return 0.0, True
    return float(np.dot(dx, dy) / (sx * sy)), False


def spearman(x: np.ndarray, y: np.ndarray) -> tuple[float, bool]:
    if np.asarray(x).size < 2:
        return 0.0, True
    return pearson(_rank_average_ties(np.asarray(x, dtype=np.float64)),
                   _rank_average_ties(np.asarray(y, dtype=np.float64)))


@dataclass
class EvalMetrics:
    targets: list[str]
    pearson: dict[str, float]
    spearman: dict[str, float]
    mae: dict[str, float]
    rmse: dict[str, float]
    degenerate: dict[str, bool]

    @property
    def mean_pearson(self) -> float:
        return float(np.mean([self.pearson[t] for t in self.targets]))

    def rows(self, setup: str) -> list[dict]:
        return [{"setup": setup, "target": t,
                 "pearson": self.pearson[t], "spearman": self.spearman[t],
                 "mae": self.mae[t], "rmse": self.rmse[t]}
                for t in self.targets]


def evaluate_predictions(y_true: np.ndarray, y_pred: np.ndarray,
                         targets: list[str]) -> EvalMetrics:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.ndim != 2:
        raise ValueError("y_true and y_pred must be matching (n, n_targets)")
    pe, sp, mae, rmse, dg = {}, {}, {}, {}, {}
    for j, t in enumerate(targets):
        a, b = y_true[:, j], y_pred[:, j]
        r, d1 = pearson(a, b)
        rho, d2 = spearman(a, b)
        pe[t] = r
        sp[t] = rho
        dg[t] = bool(d1 or d2)
        err = b - a
        mae[t] = float(np.mean(np.abs(err)))
        rmse[t] = float(np.sqrt(np.mean(err * err)))
    return EvalMetrics(list(targets), pe, sp, mae, rmse, dg)


def evaluate(model: NkmModel, windows: Windows) -> EvalMetrics:
    if not len(windows):
        raise ValueError(f"no windows to evaluate: a window needs "
                         f"{model.arch.window} visits and a next one")
    return evaluate_predictions(windows.y, model.predict(windows.X),
                                schema.TARGET_COLUMNS)


# ---- cross-validation and ablations ---------------------------------------

@dataclass
class FoldOutcome:
    fold: int
    metrics: EvalMetrics
    result: TrainResult | EdmdModel | None = None   # the fold's fitted model


@dataclass
class CvResult:
    setup: str
    folds: list[FoldOutcome]

    def fold_mean_pearson(self) -> list[float]:
        return [f.metrics.mean_pearson for f in self.folds]

    def mean_pearson(self) -> float:
        return float(np.mean(self.fold_mean_pearson()))

    def rows(self) -> list[dict]:
        out = []
        for f in self.folds:
            for row in f.metrics.rows(self.setup):
                out.append({"fold": f.fold, **row})
        return out


def _run_folds(setup: str, table: VisitTable, k: int, seed: int, w: int,
               val_frac: float, score) -> CvResult:
    """The fold protocol every model is scored under: k subject folds, fold
    f materialized with seed + f and scored by `score(f, fold)`."""
    folds = subject_kfold(table.unique_subjects(), k=k, seed=seed)
    return CvResult(setup, [score(f, materialize_fold(table, test, seed=seed + f,
                                                      w=w, val_frac=val_frac))
                            for f, test in enumerate(folds)])


def run_cv(table: VisitTable, arch: ArchConfig | None = None,
           optim_cfg: OptimConfig | None = None, loss_cfg: LossConfig | None = None,
           k: int = 5, seed: int = 0, mode: str = "joint",
           ablation: AblationFlags | None = None, setup_name: str = "full",
           val_frac: float = 0.2) -> CvResult:
    """Subject-stratified k-fold train/evaluate on windows of arch.window
    visits; fully seeded."""
    arch = arch if arch is not None else ArchConfig()

    def score(f: int, fd: FoldData) -> FoldOutcome:
        model = NkmModel(arch, seed=seed + f, ablation=ablation)
        res = train(model, fd.train, fd.val, optim_cfg, loss_cfg,
                    mode=mode, seed=seed + f)
        return FoldOutcome(f, evaluate(res.model, fd.test), res)

    return _run_folds(setup_name, table, k, seed, arch.window, val_frac, score)


def run_edmd_cv(table: VisitTable, edmd_cfg: EdmdConfig | None = None, k: int = 5,
                seed: int = 0, w: int = 3, val_frac: float = 0.2) -> CvResult:
    """EDMD baseline under the same fold protocol: fit on the train+val rows
    of the fold's imputed table, score the held-out test windows."""
    edmd_cfg = edmd_cfg if edmd_cfg is not None else EdmdConfig()

    def score(f: int, fd: FoldData) -> FoldOutcome:
        model = EdmdModel(edmd_cfg).fit(
            fd.table.subset_subjects(fd.train_subjects + fd.val_subjects))
        return FoldOutcome(f, evaluate_predictions(
            fd.test.y, model.predict_windows(fd.test), schema.TARGET_COLUMNS),
            model)

    return _run_folds("edmd_rbf", table, k, seed, w, val_frac, score)


def run_ablation(table: VisitTable, setups: list[str] | None = None,
                 **cv_kwargs) -> list[CvResult]:
    """One CvResult per setup, same folds and seeds across setups. Every
    keyword argument is passed through to run_cv. The setups are checked
    before any is run: at least one, each named once."""
    setups = list(ABLATION_SETUPS) if setups is None else list(setups)
    flags = check_setups(setups)
    return [run_cv(table, ablation=f, setup_name=name, **cv_kwargs)
            for name, f in zip(setups, flags)]
