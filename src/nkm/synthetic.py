"""Synthetic longitudinal cohorts with known linear latent dynamics.

Hidden state: z_{t+1} = A z_t + b_s with ||A||_2 = 0.9 and a per-subject
drift b_s; observations are per-modality tanh-of-affine maps of z plus
measurement noise (or the raw state in "identity" mode); targets are a
linear readout of z. The sidecar records every planted quantity so tests
can recover them independently.

Draw order is fixed so equal (cfg, seed) pairs produce identical tables:
the globals, then the per-subject values, then one (rows, columns) block
of visit noise, then the missingness mask. Rows of the noise block are
visits, subject by subject; its columns are the informative columns, the
noise columns and the targets (targets only in "identity" mode). Filled
in row-major order, the block holds the same numbers that one scalar draw
per visit and column gave, in the same places.

Each informative column is `np.vecdot(w, Z)` over all visit rows and the
targets are `np.matmul(C, Z[:, :, None])`: these forms round exactly as
the per-visit dot products `w @ z` and `C @ z` do, where `Z @ w`,
`Z @ C.T`, `einsum` and `np.inner` can differ in the last bit. So a
cohort's table is the same byte for byte as that of a per-visit loop.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import schema
from .data import VisitTable


def _finite(v) -> bool:
    return isinstance(v, numbers.Real) and math.isfinite(v)


@dataclass
class SyntheticConfig:
    n_subjects: int = 200
    visits_per_subject: int = 8
    latent_dim: int = 4
    noise_sd: float = 0.1
    missing_rate: float = 0.0
    drift_sd: float = 0.05
    base_drift_scale: float = 0.05
    observation: str = "tanh"          # "tanh" | "identity"
    target_noise_sd: float | None = None
    n_noise_mri: int = 4               # trailing MRI columns carry no signal
    observed_rank: int | None = None   # None: every latent dim is observed

    def __post_init__(self):
        if self.n_subjects < 1 or self.visits_per_subject < 1:
            raise ValueError("n_subjects and visits_per_subject must be >= 1")
        if self.latent_dim < 1 or self.latent_dim > schema.N_FEATURES:
            raise ValueError(f"latent_dim must be in [1, {schema.N_FEATURES}]")
        # a negative sd flips the noise's sign and still writes a cohort; a
        # non-finite or non-numeric value fills the table with NaN or dies
        # inside numpy
        for name in ("noise_sd", "drift_sd", "target_noise_sd"):
            v = getattr(self, name)
            if name == "target_noise_sd" and v is None:
                continue
            if not (_finite(v) and v >= 0):
                raise ValueError(f"{name} must be a finite number >= 0")
        if not _finite(self.base_drift_scale):
            raise ValueError("base_drift_scale must be a finite number")
        if not (0.0 <= self.missing_rate < 1.0):
            raise ValueError("missing_rate must be in [0, 1)")
        if self.observation not in ("tanh", "identity"):
            raise ValueError("observation must be 'tanh' or 'identity'")
        if not (0 <= self.n_noise_mri <= len(schema.GROUP_COLUMNS["mri"])):
            raise ValueError("n_noise_mri out of range")
        if self.observed_rank is not None and not (
                1 <= self.observed_rank <= self.latent_dim):
            raise ValueError("observed_rank must be in [1, latent_dim]")


def _stable_matrix(rng: np.random.Generator, d: int, norm: float = 0.9) -> np.ndarray:
    # scaled rotation: every singular value equals `norm`, so the state decays
    # isotropically instead of rank-collapsing within a few visits
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    return norm * (Q * np.sign(np.diag(R)))


def generate_synthetic(cfg: SyntheticConfig, seed: int = 0
                       ) -> tuple[VisitTable, dict]:
    """Build the cohort table and its ground-truth sidecar."""
    rng = np.random.default_rng(seed)
    d = cfg.latent_dim
    n_vis = cfg.visits_per_subject
    tnoise = cfg.noise_sd if cfg.target_noise_sd is None else cfg.target_noise_sd

    # globals
    A = _stable_matrix(rng, d)
    b0 = cfg.base_drift_scale * rng.standard_normal(d)
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    # unit readout rows: every target carries the same planted signal scale
    C = rng.standard_normal((schema.N_TARGETS, d))
    C /= np.linalg.norm(C, axis=1, keepdims=True)

    mri_cols = schema.GROUP_COLUMNS["mri"]
    informative = (schema.GROUP_COLUMNS["csf"] + schema.GROUP_COLUMNS["pet"]
                   + (mri_cols[:len(mri_cols) - cfg.n_noise_mri]
                      if cfg.n_noise_mri else mri_cols))
    noise_cols = mri_cols[len(mri_cols) - cfg.n_noise_mri:] if cfg.n_noise_mri else []
    if cfg.observed_rank is not None:
        # rank-limited observation: single visits reveal only a projection of
        # the state, so recovering it needs several visits of context
        basis, _ = np.linalg.qr(rng.standard_normal((d, cfg.observed_rank)))
        obs_w = {c: basis @ (rng.standard_normal(cfg.observed_rank)
                             / np.sqrt(cfg.observed_rank))
                 for c in informative}
    else:
        obs_w = {c: rng.standard_normal(d) / np.sqrt(d) for c in informative}
    obs_b = {c: float(rng.standard_normal()) for c in informative}
    obs_scale = {c: float(rng.uniform(0.5, 2.0)) for c in informative}
    obs_offset = {c: float(rng.standard_normal()) for c in informative + noise_cols}

    col = {name: j for j, name in enumerate(schema.FEATURE_COLUMNS)}

    # per-subject draws
    sids = [f"S{i:04d}" for i in range(cfg.n_subjects)]
    apoe4 = rng.choice([0, 1, 2], size=cfg.n_subjects, p=[0.5, 0.35, 0.15])
    xi = rng.standard_normal((cfg.n_subjects, d))
    drift = b0[None, :] + cfg.drift_sd * (xi + (apoe4[:, None] - 1.0) * u[None, :])
    z0 = rng.standard_normal((cfg.n_subjects, d))
    age0 = rng.uniform(55.0, 85.0, size=cfg.n_subjects)
    edu = rng.integers(8, 21, size=cfg.n_subjects).astype(np.float64)
    sex = rng.choice(2, size=cfg.n_subjects, p=[0.45, 0.55])
    marry = rng.choice(4, size=cfg.n_subjects, p=[0.6, 0.15, 0.15, 0.1])
    race = rng.choice(5, size=cfg.n_subjects, p=[0.7, 0.12, 0.08, 0.05, 0.05])
    site = rng.choice(6, size=cfg.n_subjects)

    # roll the latent trajectories
    Z = np.zeros((cfg.n_subjects, n_vis, d))
    Z[:, 0] = z0
    for t in range(1, n_vis):
        Z[:, t] = Z[:, t - 1] @ A.T + drift

    n_rows = cfg.n_subjects * n_vis
    rows = np.arange(n_rows)
    subj = rows // n_vis                    # visit rows, subject by subject
    visits = rows % n_vis
    subject_ids = [sid for sid in sids for _ in range(n_vis)]
    Z = Z.reshape(n_rows, d)
    X = np.zeros((n_rows, schema.N_FEATURES))

    if cfg.observation == "identity":
        E = rng.standard_normal((n_rows, schema.N_TARGETS))
        X[:, :d] = Z
    else:
        E = rng.standard_normal(
            (n_rows, len(informative) + len(noise_cols) + schema.N_TARGETS))
        X[:, col["APOE4"]] = apoe4[subj]
        for k, c in enumerate(informative):
            clean = obs_offset[c] + obs_scale[c] * np.tanh(
                np.vecdot(obs_w[c], Z) + obs_b[c])
            X[:, col[c]] = clean + cfg.noise_sd * E[:, k]
        for k, c in enumerate(noise_cols, start=len(informative)):
            X[:, col[c]] = obs_offset[c] + E[:, k]
        X[:, col["DEMO_AGE"]] = age0[subj] + 0.5 * visits
        X[:, col["DEMO_EDUCATION"]] = edu[subj]
        X[rows, col["DEMO_SEX_F"] + sex[subj]] = 1.0
        X[rows, col["DEMO_MARRY_MARRIED"] + marry[subj]] = 1.0
        X[rows, col["DEMO_RACE_WHITE"] + race[subj]] = 1.0
        X[rows, col["DEMO_SITE01"] + site[subj]] = 1.0
    Y = np.matmul(C, Z[:, :, None])[:, :, 0] + tnoise * E[:, -schema.N_TARGETS:]

    if cfg.missing_rate > 0.0:
        mask_cols = [col[c] for c in schema.MASKABLE_COLUMNS]
        mask = rng.random((n_rows, len(mask_cols))) < cfg.missing_rate
        for jj, cj in enumerate(mask_cols):
            X[mask[:, jj], cj] = np.nan

    table = VisitTable(subject_ids, visits, X, Y)
    sidecar = {
        "seed": int(seed),
        "config": asdict(cfg),
        "A": A.tolist(),
        "b0": b0.tolist(),
        "drift_direction": u.tolist(),
        "C": C.tolist(),
        "drift": {sid: drift[i].tolist() for i, sid in enumerate(sids)},
        "apoe4": {sid: int(apoe4[i]) for i, sid in enumerate(sids)},
        "informative_columns": (list(informative) + ["APOE4"]
                                if cfg.observation == "tanh"
                                else schema.FEATURE_COLUMNS[:d]),
        "noise_columns": list(noise_cols) if cfg.observation == "tanh" else [],
        "observation": cfg.observation,
        "observed_basis": (basis.tolist() if cfg.observed_rank is not None
                           else None),
    }
    return table, sidecar
