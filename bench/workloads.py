"""Workloads of the nkm benchmark: set-up, the timed phases and output checks.

Every workload runs the `nkm train` then `nkm eval` flow in one process,
as a closed loop with a single caller:

1. set-up: synthesize the cohort from the workload seed, materialize fold 0
   of a 5-fold subject split (as `run_cv` does), impute the held-out and
   train+val tables, build the seeded model, and make one untimed call of
   every timed operation so first-call costs (the first LAPACK SVD and
   solve, allocator growth) land in set-up and not in a timed metric;
2. one `train()` call, then a checkpoint round trip that yields the model
   every scoring round uses;
3. until the run's seconds are spent, interleaved: more `train()` calls
   from the same initial parameters, each a fixed number of epochs that
   early stopping cannot cut short, and scoring rounds of single-window
   `predict` calls back to back, one 1000-window `predict`,
   `Preprocessor.transform` on the held-out rows, an EDMD fit and
   forecast, and `verify_bound`.

The workloads differ in what dominates: BLAS work and the closed-form K
update of the full architecture (train-full-alt), and the desk model's
Python tape plus KNN imputation and backward-free scoring on a cohort with
missing values (score-missing).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from nkm import analysis, data, edmd, model, optim, schema, synthetic, training

VISITS = 8
K_FOLDS = 5
BATCH = 64
LR = 3e-3
RHO = training.LossConfig().rho
TAU_MAX = 5
EDMD_CENTERS = 100
BATCH_TOL = 1e-12          # batched vs single-window predictions
IMPUTE_RTOL = 1e-12        # observed entries vs (x - mean) / std
BLOCK_S = 0.1              # repeat a fast operation until a block lasts this long
TAIL_PCT = 99.5            # tail percentile of single-window predict latency
EDMD_FLOOR = 0.8           # edmd_test_pearson was 0.91-0.97 over seeds 1000-1009


@dataclass(frozen=True)
class Workload:
    name: str
    n_subjects: int
    missing_rate: float
    full_arch: bool
    mode: str
    epochs: int                 # per train() call
    train_share: float          # share of the elapsed time spent in train()
    pearson_floor: float | None  # floor on test_pearson, where checked
    edmd_floor: float = EDMD_FLOOR
    min_train_calls: int = 2
    predict1_block: int = 200   # single-window predicts per scoring round
    min_rounds: int = 10        # rounds x block >= 2000: ten samples beyond p99.5
    predict_batch: int = 1000


# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    "train-full-alt": Workload(
        name="train-full-alt",
        n_subjects=200, missing_rate=0.0, full_arch=True,
        mode="alternating", epochs=4, train_share=0.45, pearson_floor=None,
        predict1_block=500, min_rounds=4),
    "score-missing": Workload(
        name="score-missing",
        n_subjects=400, missing_rate=0.2, full_arch=False,
        mode="joint", epochs=3, train_share=0.4, pearson_floor=0.6),
}


def toy(wl: Workload) -> Workload:
    """A seconds-long version of `wl` for the benchmark's self-test."""
    return replace(wl, n_subjects=30, full_arch=False, epochs=1,
                   min_train_calls=2, predict1_block=20, min_rounds=1,
                   predict_batch=50, pearson_floor=None, edmd_floor=-1.0)


# ---- output checks: each returns None when the output is right ------------

def check_losses(history: list[dict], epochs: int) -> str | None:
    if len(history) != epochs:
        return f"train() ran {len(history)} epochs, expected {epochs}"
    for rec in history:
        for key in ("L_pred", "L_koop", "R_spec", "val_loss"):
            if not math.isfinite(rec[key]):
                return f"non-finite {key} in epoch {rec['epoch']}"
    return None


def check_k_norm(K: np.ndarray, rho: float) -> str | None:
    norm = float(np.linalg.svd(K, compute_uv=False)[0])
    if not norm <= rho * (1.0 + 1e-12):
        return f"exact ||K||_2 = {norm!r} exceeds rho = {rho}"
    return None


def check_floor(name: str, value: float, floor: float | None) -> str | None:
    if floor is not None and not value >= floor:
        return f"{name} = {value!r} is below its floor {floor}"
    return None


def check_same(name: str, value, first) -> str | None:
    if value != first:
        return f"{name} changed between identical calls: {first!r} -> {value!r}"
    return None


def check_imputed(Z: np.ndarray, X: np.ndarray, mean: np.ndarray,
                  std: np.ndarray) -> str | None:
    if Z.shape != X.shape or not np.all(np.isfinite(Z)):
        return "imputed matrix is not finite"
    observed = ~np.isnan(X)
    expect = (X - mean) / std
    if not np.allclose(Z[observed], expect[observed], rtol=IMPUTE_RTOL,
                       atol=IMPUTE_RTOL):
        return "observed entries differ from (x - mean) / std"
    return None


def check_batched(batch: np.ndarray, singles: dict[int, np.ndarray]
                  ) -> str | None:
    if not np.all(np.isfinite(batch)):
        return "batched predictions are not finite"
    worst = max((float(np.max(np.abs(batch[i] - y))) for i, y in singles.items()),
                default=0.0)
    if not worst <= BATCH_TOL:
        return f"batched predict differs from single-window predict by {worst!r}"
    return None


def check_prediction(y: np.ndarray) -> str | None:
    if y.shape != (1, schema.N_TARGETS) or not np.all(np.isfinite(y)):
        return "single-window prediction is not a finite (1, 3) row"
    return None


def check_bound(report) -> str | None:
    if not report.passed:
        return "verify_bound: empirical rollout error exceeds the bound"
    return None


# ---- set-up ---------------------------------------------------------------

@dataclass
class Setup:
    wl: Workload
    seed: int
    fold: data.FoldData
    heldout_X: np.ndarray            # raw held-out rows, NaN where missing
    heldout: data.VisitTable         # held-out rows, imputed
    edmd_table: data.VisitTable      # train+val rows, imputed
    model: model.NkmModel
    init_values: dict
    optim_cfg: optim.OptimConfig
    loss_cfg: training.LossConfig
    predict_X: np.ndarray            # predict_batch test windows, cycled
    transform_block: int = 1         # calls per timed transform sample
    edmd_block: int = 1              # EDMD fits per timed sample


def arch_for(wl: Workload) -> model.ArchConfig:
    if wl.full_arch:
        return model.full_arch()
    return model.ArchConfig(d_z=16, n_heads=4, dropout=0.05)


def setup(wl: Workload, seed: int) -> Setup:
    cohort = synthetic.SyntheticConfig(
        n_subjects=wl.n_subjects, visits_per_subject=VISITS,
        missing_rate=wl.missing_rate)
    table, _ = synthetic.generate_synthetic(cohort, seed=seed)
    test_subjects = data.subject_kfold(table.unique_subjects(), k=K_FOLDS,
                                       seed=seed)[0]
    fold = data.materialize_fold(table, test_subjects, seed=seed)
    pre = fold.preprocessor
    raw = table.subset_subjects(test_subjects)
    heldout = raw.with_features(pre.transform(raw.X))
    fit_rows = table.subset_subjects(fold.train_subjects + fold.val_subjects)
    edmd_table = fit_rows.with_features(pre.transform(fit_rows.X))

    net = model.NkmModel(arch_for(wl), seed=seed)
    # patience beyond the epoch count: every call runs the same steps
    optim_cfg = optim.OptimConfig(lr=LR, batch_size=BATCH, epochs=wl.epochs,
                                  early_stop_patience=wl.epochs + 1)
    loss_cfg = training.LossConfig()
    idx = np.arange(wl.predict_batch) % len(fold.test)
    s = Setup(wl, seed, fold, raw.X, heldout, edmd_table, net,
              net.params.copy_values(), optim_cfg, loss_cfg, fold.test.X[idx])

    # warm-up: one untimed call of each timed operation
    first = data.Windows(fold.train.X[:BATCH], fold.train.y[:BATCH],
                         fold.train.subjects[:BATCH], fold.train.starts[:BATCH])
    training.train(net, first, fold.val, replace(optim_cfg, epochs=1),
                   loss_cfg, mode=wl.mode, seed=seed)
    training.evaluate(net, fold.test)
    net.params.load_values(s.init_values)
    net.predict(fold.test.X[:1])
    net.predict(s.predict_X)
    t = time.perf_counter()
    pre.transform(s.heldout_X)
    s.transform_block = _block(time.perf_counter() - t)
    s.edmd_block = _block(_fit_edmd(s)[0])
    analysis.verify_bound(net, heldout, tau_max=TAU_MAX)
    return s


def _block(once: float) -> int:
    """Calls per timed sample, so one sample lasts about BLOCK_S."""
    return max(1, int(BLOCK_S / max(once, 1e-9)))


def _fit_edmd(s: Setup) -> tuple[float, float]:
    """(fit seconds, mean test Pearson r) of one EDMD fit and forecast."""
    est = edmd.EdmdModel(edmd.EdmdConfig(n_centers=EDMD_CENTERS, seed=s.seed))
    t = time.perf_counter()
    est.fit(s.edmd_table)
    fit_s = time.perf_counter() - t
    pred = est.predict_windows(s.fold.test)
    r = training.evaluate_predictions(s.fold.test.y, pred,
                                      schema.TARGET_COLUMNS).mean_pearson
    return fit_s, r


# ---- timed phases ---------------------------------------------------------

@dataclass
class Samples:
    """Raw measurements of one run, in seconds unless named otherwise."""
    train_s: list[float] = field(default_factory=list)
    train_traced: list[bool] = field(default_factory=list)
    test_pearson: list[float] = field(default_factory=list)
    predict1_s: list[float] = field(default_factory=list)
    predict_batch_s: list[float] = field(default_factory=list)
    transform_s: list[float] = field(default_factory=list)
    edmd_fit_s: list[float] = field(default_factory=list)
    edmd_pearson: list[float] = field(default_factory=list)
    bound_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, problem: str | None) -> None:
        """Count one attempted operation, failed when `problem` is set."""
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)


def _first(*problems: str | None) -> str | None:
    return next((p for p in problems if p is not None), None)


def _train_call(s: Setup, smp: Samples, tracer) -> None:
    """One train() call from the initial parameters, then its checks.

    With a tracer, calls alternate untraced and traced so the tracing
    overhead is measured in the same process.
    """
    traced = tracer is not None and len(smp.train_s) % 2 == 1
    if tracer is not None:
        tracer.phase, tracer.enabled = "train", traced
    s.model.params.load_values(s.init_values)
    t = time.perf_counter()
    res = training.train(s.model, s.fold.train, s.fold.val, s.optim_cfg,
                         s.loss_cfg, mode=s.wl.mode, seed=s.seed)
    smp.train_s.append(time.perf_counter() - t)
    smp.train_traced.append(traced)
    if tracer is not None:
        tracer.enabled = False
    r = training.evaluate(s.model, s.fold.test).mean_pearson
    smp.test_pearson.append(r)
    smp.record(_first(
        check_losses(res.history, s.wl.epochs),
        check_k_norm(s.model.K.data, RHO) if s.wl.mode == "alternating" else None,
        check_floor("test_pearson", r, s.wl.pearson_floor),
        check_same("test_pearson", r, smp.test_pearson[0])))


def _checkpoint_round_trip(s: Setup, smp: Samples, workdir: Path) -> model.NkmModel:
    """Save and reload the trained model, as `nkm train` then `nkm eval` do."""
    workdir.mkdir(parents=True, exist_ok=True)
    stem = str(workdir / "model")
    model.save_checkpoint(s.model, stem)
    net, _ = model.load_checkpoint(stem)
    smp.record(None if np.array_equal(net.params.to_vector(),
                                      s.model.params.to_vector())
               else "checkpoint round trip changed the parameters")
    return net


def _score_round(s: Setup, smp: Samples, net: model.NkmModel,
                 singles: dict[int, np.ndarray], tracer) -> None:
    """Single-window predicts back to back, then one call of each other op."""
    if tracer is not None:
        tracer.phase, tracer.enabled = "score", True
    test_X = s.fold.test.X
    for _ in range(s.wl.predict1_block):
        j = len(smp.predict1_s) % len(test_X)
        t = time.perf_counter()
        y = net.predict(test_X[j:j + 1])
        smp.predict1_s.append(time.perf_counter() - t)
        singles.setdefault(j, y[0])
        smp.record(check_prediction(y))

    t = time.perf_counter()
    batch = net.predict(s.predict_X)
    smp.predict_batch_s.append(time.perf_counter() - t)
    smp.record(check_batched(batch, singles))

    pre = s.fold.preprocessor
    t = time.perf_counter()
    for _ in range(s.transform_block):
        Z = pre.transform(s.heldout_X)
    smp.transform_s.append((time.perf_counter() - t) / s.transform_block)
    smp.record(check_imputed(Z, s.heldout_X, pre.mean_, pre.std_))

    fits = [_fit_edmd(s) for _ in range(s.edmd_block)]
    smp.edmd_fit_s.append(sum(f for f, _ in fits) / s.edmd_block)
    r = fits[-1][1]
    smp.edmd_pearson.append(r)
    smp.record(_first(check_floor("edmd_test_pearson", r, s.wl.edmd_floor),
                      check_same("edmd_test_pearson", r, smp.edmd_pearson[0])))

    t = time.perf_counter()
    report = analysis.verify_bound(net, s.heldout, tau_max=TAU_MAX)
    smp.bound_s.append(time.perf_counter() - t)
    smp.record(check_bound(report))
    if tracer is not None:
        tracer.enabled = False


def run_timed(s: Setup, seconds: float, workdir: Path, tracer=None) -> Samples:
    """Interleave train() calls and scoring rounds for about `seconds`.

    The machine's speed drifts over tens of seconds, so every operation is
    sampled across the whole run rather than in one phase of it: a train()
    call runs whenever training holds less than `train_share` of the time
    spent so far. The run ends once `seconds` have passed and every
    operation has its minimum number of samples.
    """
    smp = Samples()
    wl = s.wl
    t0 = time.perf_counter()
    _train_call(s, smp, tracer)
    net = _checkpoint_round_trip(s, smp, workdir)
    singles: dict[int, np.ndarray] = {}
    rounds = 0
    while True:
        elapsed = time.perf_counter() - t0
        train_short = len(smp.train_s) < wl.min_train_calls
        score_short = rounds < wl.min_rounds
        if elapsed >= seconds and not (train_short or score_short):
            return smp
        if elapsed >= seconds and train_short != score_short:
            train_next = train_short
        else:
            train_next = sum(smp.train_s) < wl.train_share * elapsed
        if train_next:
            _train_call(s, smp, tracer)
        else:
            _score_round(s, smp, net, singles, tracer)
            rounds += 1


# ---- metrics ----------------------------------------------------------------

def train_rates(s: Setup, smp: Samples, traced: bool) -> list[float]:
    n = len(s.fold.train) * s.wl.epochs
    return [n / t for t, tr in zip(smp.train_s, smp.train_traced) if tr == traced]


def iqm(samples: list[float]) -> float:
    """Interquartile mean: the mean of the middle half of the samples."""
    x = np.sort(samples)
    cut = len(x) // 4
    return float(np.mean(x[cut:len(x) - cut]))


def end_to_end(s: Setup, smp: Samples, setup_s: list[float],
               peak_rss_mb: float) -> dict[str, float]:
    """Per-operation times are interquartile means over the run.

    The host's speed drifts between levels for seconds at a time, and a
    few samples absorb a garbage collection or a stalled BLAS thread. A
    median over a run that mixes two speed levels jumps from one to the
    other, and a mean follows the stalls; the mean of the middle half
    moves with the share of time spent at each level but not with the
    stalls. Throughputs are work per interquartile-mean call. Set-up time
    is the median of the cold set-ups.

    Single-window latency is reported by its tail alone, at p99.5, not p99.
    On the desk model about 1.5 % of single-window predicts absorb a full
    (generation 2) garbage collection. p99 falls two thirds of the way into
    that group, so it jumps between the host's two speeds with the share of
    the run spent at each. p99.5 falls within the slower speed's part of
    the group. The typical single-window call is pure interpreter work and
    slows with the host by about 1.65x, more than any other operation; its
    median is printed with the report lines but is not a metric.
    """
    plain = [t for t, traced in zip(smp.train_s, smp.train_traced) if not traced]
    return {
        "setup_s": float(np.median(setup_s)),
        "peak_rss_mb": peak_rss_mb,
        "train_windows_per_s": len(s.fold.train) * s.wl.epochs / iqm(plain),
        "test_pearson": smp.test_pearson[-1],
        "predict1_ms_p995": 1e3 * float(np.percentile(smp.predict1_s, TAIL_PCT)),
        "predict_windows_per_s": len(s.predict_X) / iqm(smp.predict_batch_s),
        "impute_rows_per_s": s.heldout_X.shape[0] / iqm(smp.transform_s),
        "edmd_fit_s": iqm(smp.edmd_fit_s),
        "edmd_test_pearson": smp.edmd_pearson[-1],
        "bound_check_s": iqm(smp.bound_s),
    }


END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "train_windows_per_s": "windows/s",
    "test_pearson": "r", "predict1_ms_p995": "ms",
    "predict_windows_per_s": "windows/s", "impute_rows_per_s": "rows/s",
    "edmd_fit_s": "s", "edmd_test_pearson": "r", "bound_check_s": "s",
}
