"""Generator determinism, planted dynamics, sidecar fidelity."""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from nkm import schema
from nkm.data import VisitTable, load_visits_csv, write_visits_csv
from nkm.synthetic import SyntheticConfig, _stable_matrix, generate_synthetic


def per_visit_reference(cfg: SyntheticConfig, seed: int
                        ) -> tuple[VisitTable, dict]:
    """The generator as one loop over visits: one scalar draw per noisy
    column and one dot product per informative column and visit. The
    array form must reproduce its tables byte for byte."""
    rng = np.random.default_rng(seed)
    d = cfg.latent_dim
    n_vis = cfg.visits_per_subject
    tnoise = cfg.noise_sd if cfg.target_noise_sd is None else cfg.target_noise_sd

    A = _stable_matrix(rng, d)
    b0 = cfg.base_drift_scale * rng.standard_normal(d)
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    C = rng.standard_normal((schema.N_TARGETS, d))
    C /= np.linalg.norm(C, axis=1, keepdims=True)

    mri_cols = schema.GROUP_COLUMNS["mri"]
    informative = (schema.GROUP_COLUMNS["csf"] + schema.GROUP_COLUMNS["pet"]
                   + (mri_cols[:len(mri_cols) - cfg.n_noise_mri]
                      if cfg.n_noise_mri else mri_cols))
    noise_cols = mri_cols[len(mri_cols) - cfg.n_noise_mri:] if cfg.n_noise_mri else []
    if cfg.observed_rank is not None:
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

    Z = np.zeros((cfg.n_subjects, n_vis, d))
    Z[:, 0] = z0
    for t in range(1, n_vis):
        Z[:, t] = Z[:, t - 1] @ A.T + drift

    n_rows = cfg.n_subjects * n_vis
    X = np.zeros((n_rows, schema.N_FEATURES))
    Y = np.zeros((n_rows, schema.N_TARGETS))
    subject_ids: list[str] = []
    visits = np.zeros(n_rows, dtype=np.int64)

    row = 0
    for i, sid in enumerate(sids):
        for t in range(n_vis):
            subject_ids.append(sid)
            visits[row] = t
            z = Z[i, t]
            if cfg.observation == "identity":
                X[row, :d] = z
            else:
                X[row, col["APOE4"]] = float(apoe4[i])
                for c in informative:
                    clean = obs_offset[c] + obs_scale[c] * np.tanh(obs_w[c] @ z + obs_b[c])
                    X[row, col[c]] = clean + cfg.noise_sd * rng.standard_normal()
                for c in noise_cols:
                    X[row, col[c]] = obs_offset[c] + rng.standard_normal()
                X[row, col["DEMO_AGE"]] = age0[i] + 0.5 * t
                X[row, col["DEMO_EDUCATION"]] = edu[i]
                X[row, col["DEMO_SEX_F"] + sex[i]] = 1.0
                X[row, col["DEMO_MARRY_MARRIED"] + marry[i]] = 1.0
                X[row, col["DEMO_RACE_WHITE"] + race[i]] = 1.0
                X[row, col["DEMO_SITE01"] + site[i]] = 1.0
            Y[row] = C @ z + tnoise * rng.standard_normal(schema.N_TARGETS)
            row += 1

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


def reference_grid(n: int = 192, seed: int = 0) -> list[dict]:
    """n generator settings drawn over every value of each key below."""
    keys = {"n_subjects": [1, 7, 13, 40], "visits_per_subject": [1, 3, 5, 8],
            "missing_rate": [0.0, 0.1, 0.2], "observation": ["tanh", "identity"],
            "latent_dim": [1, 2, 4, 9, 16], "observed_rank": [None, 1, 2],
            "n_noise_mri": [0, 4], "target_noise_sd": [None, 0.0, 0.3]}
    rng = np.random.default_rng(seed)
    grid = []
    for i in range(n):
        # the first rows take each key's values in turn, so every value
        # appears at least once
        kw = {k: v[i] if i < len(v) else v[rng.integers(len(v))]
              for k, v in keys.items()}
        if kw["observed_rank"] is not None:
            kw["observed_rank"] = min(kw["observed_rank"], kw["latent_dim"])
        grid.append(kw)
    return grid


def cohort_sha256(table: VisitTable, sidecar: dict) -> str:
    h = hashlib.sha256()
    for part in (table.X.tobytes(), table.Y.tobytes(), table.visits.tobytes(),
                 "\n".join(table.subject_ids).encode(),
                 json.dumps(sidecar, sort_keys=True).encode()):
        h.update(part)
    return h.hexdigest()


class TestArrayForm:
    def test_matches_per_visit_reference_byte_for_byte(self):
        for i, kw in enumerate(reference_grid()):
            cfg = SyntheticConfig(**kw)
            ref, ref_side = per_visit_reference(cfg, seed=i)
            got, side = generate_synthetic(cfg, seed=i)
            assert got.X.tobytes() == ref.X.tobytes(), kw   # NaN positions too
            assert got.Y.tobytes() == ref.Y.tobytes(), kw
            assert got.visits.dtype == ref.visits.dtype, kw
            assert got.visits.tobytes() == ref.visits.tobytes(), kw
            assert got.subject_ids == ref.subject_ids, kw
            assert side == ref_side, kw

    def test_default_cohort_digest(self):
        # recorded from the per-visit generator: the default 200 x 8 cohort
        table, sidecar = generate_synthetic(SyntheticConfig(), seed=8)
        assert cohort_sha256(table, sidecar) == (
            "e416550f9786954db8f1c69e82396d37991f531103091bba08d53df0e1a5b57f")


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        cfg = SyntheticConfig(n_subjects=12, visits_per_subject=5, missing_rate=0.1)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        t1, s1 = generate_synthetic(cfg, seed=42)
        t2, s2 = generate_synthetic(cfg, seed=42)
        write_visits_csv(t1, str(p1))
        write_visits_csv(t2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert s1 == s2

    def test_different_seed_differs(self):
        cfg = SyntheticConfig(n_subjects=5, visits_per_subject=4)
        t1, _ = generate_synthetic(cfg, seed=1)
        t2, _ = generate_synthetic(cfg, seed=2)
        assert not np.array_equal(t1.X, t2.X)


class TestPlantedDynamics:
    def test_A_norm_bounded(self):
        for seed in (0, 7, 123):
            _, sc = generate_synthetic(SyntheticConfig(n_subjects=2,
                                                       visits_per_subject=2), seed)
            A = np.array(sc["A"])
            assert np.linalg.svd(A, compute_uv=False)[0] <= 0.9 + 1e-12

    def test_identity_observation_exposes_latents(self):
        cfg = SyntheticConfig(n_subjects=6, visits_per_subject=6, latent_dim=3,
                              noise_sd=0.0, drift_sd=0.0, observation="identity")
        table, sc = generate_synthetic(cfg, seed=5)
        A = np.array(sc["A"])
        b0 = np.array(sc["b0"])
        Z = table.X[:, :3]
        # consecutive rows of one subject follow z' = A z + b0 exactly
        for i in range(len(table) - 1):
            if table.subject_ids[i] != table.subject_ids[i + 1]:
                continue
            assert np.allclose(Z[i + 1], A @ Z[i] + b0, atol=1e-12)

    def test_drift_equals_base_when_spread_zero(self):
        cfg = SyntheticConfig(n_subjects=4, visits_per_subject=3, drift_sd=0.0)
        _, sc = generate_synthetic(cfg, seed=3)
        b0 = sc["b0"]
        for v in sc["drift"].values():
            assert np.allclose(v, b0, atol=0)

    def test_targets_follow_readout(self):
        cfg = SyntheticConfig(n_subjects=5, visits_per_subject=4, latent_dim=3,
                              noise_sd=0.0, observation="identity")
        table, sc = generate_synthetic(cfg, seed=9)
        C = np.array(sc["C"])
        assert np.allclose(table.Y, table.X[:, :3] @ C.T, atol=1e-12)


class TestCohortShape:
    def test_loader_accepts_generated_cohort(self, tmp_path):
        cfg = SyntheticConfig(n_subjects=8, visits_per_subject=5, missing_rate=0.15)
        table, _ = generate_synthetic(cfg, seed=11)
        p = tmp_path / "c.csv"
        write_visits_csv(table, str(p))
        back = load_visits_csv(str(p))
        assert np.array_equal(back.X, table.X, equal_nan=True)
        assert np.array_equal(back.Y, table.Y)

    def test_apoe4_matches_sidecar(self):
        table, sc = generate_synthetic(SyntheticConfig(n_subjects=10,
                                                       visits_per_subject=3), seed=2)
        j = schema.feature_index("APOE4")
        for i, sid in enumerate(table.subject_ids):
            assert table.X[i, j] == sc["apoe4"][sid]

    def test_missingness_confined_to_maskable_columns(self):
        cfg = SyntheticConfig(n_subjects=30, visits_per_subject=6, missing_rate=0.2)
        table, _ = generate_synthetic(cfg, seed=4)
        maskable = {schema.feature_index(c) for c in schema.MASKABLE_COLUMNS}
        nan_cols = set(np.where(np.isnan(table.X).any(axis=0))[0].tolist())
        assert nan_cols <= maskable
        rate = np.isnan(table.X[:, sorted(maskable)]).mean()
        assert 0.15 < rate < 0.25

    def test_noise_columns_listed(self):
        _, sc = generate_synthetic(SyntheticConfig(n_subjects=2, visits_per_subject=2,
                                                   n_noise_mri=4), seed=0)
        assert sc["noise_columns"] == [f"MRI_NET{i:02d}" for i in (15, 16, 17)] + ["MRI_ICV"]
        assert "CSF_ABETA" in sc["informative_columns"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(latent_dim=0)
        with pytest.raises(ValueError):
            SyntheticConfig(missing_rate=1.0)
        with pytest.raises(ValueError):
            SyntheticConfig(observation="raw")

    @pytest.mark.parametrize("key,value", [
        ("noise_sd", -1.0), ("noise_sd", float("nan")), ("noise_sd", "nan"),
        ("noise_sd", float("inf")), ("drift_sd", -0.05),
        ("drift_sd", float("nan")), ("target_noise_sd", float("inf")),
        ("target_noise_sd", -0.1), ("target_noise_sd", "0.3"),
        ("base_drift_scale", float("nan")), ("base_drift_scale", float("-inf")),
        ("base_drift_scale", "0.05")])
    def test_noise_and_drift_values_validated(self, key, value):
        # noise_sd=-1 wrote a cohort; the string "nan" raised a TypeError and
        # target_noise_sd=inf a numpy loop error deep in the generator
        with pytest.raises(ValueError, match=key):
            SyntheticConfig(**{key: value})

    @pytest.mark.parametrize("key,value", [
        ("noise_sd", 0), ("drift_sd", 0.0), ("target_noise_sd", None),
        ("target_noise_sd", 0.0), ("base_drift_scale", -0.05)])
    def test_edge_values_accepted(self, key, value):
        SyntheticConfig(**{key: value})
