"""Bound harness, descent harness, latent export, permutation importance."""
from __future__ import annotations

import math

import numpy as np
import pytest

from nkm.analysis import (BoundReport, _bound_states, bound_limit, export_latents,
                          feature_importance, fit_pca, geometric_bound,
                          measure_eps, rollout_latents, verify_bound,
                          verify_descent, write_latents_csv)
from nkm.data import VisitTable, build_windows, materialize_fold
from nkm.edmd import EdmdConfig, EdmdModel
from nkm.model import AblationFlags, ArchConfig, NkmModel, full_arch
from nkm.optim import OptimConfig
from nkm.schema import FEATURE_COLUMNS, GROUP_COLUMNS
from nkm.synthetic import SyntheticConfig, generate_synthetic
from nkm.tensor import no_grad
from nkm.training import LossConfig


def tiny_arch(**kw):
    base = dict(d_z=8, n_heads=2,
                group_hidden={"genetic": (6, 4), "csf": (6, 4), "pet": (6, 4),
                              "mri": (6, 4), "demo": (6, 4)},
                n_refine_blocks=2, n_decoder_blocks=2, dropout=0.0)
    base.update(kw)
    return ArchConfig(**base)


def long_cohort(seed=0, n_subjects=8, visits=24, **kw):
    cfg = SyntheticConfig(n_subjects=n_subjects, visits_per_subject=visits,
                          latent_dim=3, noise_sd=0.05, drift_sd=0.05, **kw)
    table, _ = generate_synthetic(cfg, seed=seed)
    return table


class TestMeasureEps:
    def test_exact_linear_gives_zero(self):
        rng = np.random.default_rng(0)
        K = rng.normal(size=(4, 4)) * 0.3
        Z = rng.normal(size=(9, 4))
        Zn = Z @ K.T
        assert measure_eps(Z, Zn, K) == 0.0

    def test_single_pair_is_its_residual(self):
        K = np.eye(2)
        z = np.array([[1.0, 2.0]])
        zn = np.array([[1.5, 2.0]])
        assert measure_eps(z, zn, K) == pytest.approx(0.5, abs=1e-15)

    def test_three_pair_hand_max(self):
        K = np.zeros((2, 2))
        Z = np.zeros((3, 2))
        Zn = np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 2.0]])
        # residual norms: 5, 1, 2
        assert measure_eps(Z, Zn, K) == 5.0

    def test_controlled_variant_subtracts_control(self):
        K = np.eye(2)
        Z = np.array([[1.0, 1.0]])
        Zn = np.array([[2.0, 3.0]])
        C = np.array([[1.0, 2.0]])
        assert measure_eps(Z, Zn, K, C) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_eps(np.zeros((2, 3)), np.zeros((3, 3)), np.eye(3))


class TestGeometricBound:
    def test_tau_one_equals_eps(self):
        assert geometric_bound(0.7, 0.5, 1) == 0.7

    def test_limit_hand_case(self):
        # eps = 0.1 with d_z = 4 gives eps_tilde = 0.2; limit = 0.2/0.5 = 0.4
        eps_tilde = 0.1 * math.sqrt(4)
        assert bound_limit(eps_tilde, 0.5) == pytest.approx(0.4, abs=1e-15)
        assert geometric_bound(eps_tilde, 0.5, 200) == pytest.approx(
            0.4, abs=1e-12)

    def test_zero_norm_returns_eps_for_all_tau(self):
        for tau in (1, 2, 17):
            assert geometric_bound(0.3, 0.0, tau) == 0.3

    def test_monotone_and_convergent(self):
        for q in (0.3, 0.5, 0.9):
            vals = [geometric_bound(0.2, q, t) for t in range(1, 201)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            lim = bound_limit(0.2, q)
            assert all(v <= lim for v in vals)
            assert abs(vals[-1] - lim) < 1e-6

    def test_domain_errors(self):
        for bad in (1.0, 1.2, -0.1):
            with pytest.raises(ValueError, match="requires"):
                geometric_bound(0.1, bad, 3)
        with pytest.raises(ValueError):
            geometric_bound(0.1, 0.5, 0)
        with pytest.raises(ValueError):
            geometric_bound(-0.1, 0.5, 3)
        with pytest.raises(ValueError, match="requires"):
            bound_limit(0.1, 1.0)


class TestVerifyBound:
    def test_projected_nkm_passes(self):
        table = long_cohort(seed=0)
        fold = materialize_fold(table, table.unique_subjects()[:2], seed=0)
        model = NkmModel(tiny_arch(), seed=1)
        model.project_spectral(0.95)
        test_table = table.subset_subjects(fold.test_subjects)
        test_table = test_table.with_features(
            fold.preprocessor.transform(test_table.X))
        report = verify_bound(model, test_table, tau_max=20)
        assert report.passed
        assert report.norm_k < 1.0
        assert len(report.empirical) == 20
        assert report.empirical[0] == pytest.approx(report.eps_tilde, rel=1e-12)
        assert all(b <= report.limit + 1e-12 for b in report.bound)
        assert all(b >= a for a, b in zip(report.bound, report.bound[1:]))
        assert math.isfinite(report.lambda_max)

    @pytest.mark.parametrize("arch, atol", [
        (ArchConfig(d_z=16, n_heads=4, dropout=0.05), 0.0),
        (full_arch(), 1e-12)])
    def test_sequences_match_per_subject_forward(self, arch, atol):
        # one forward over every subject's windows, against one forward per
        # subject: bitwise at desk size, BLAS rounding at 360
        full = long_cohort(seed=3, n_subjects=7, visits=6, missing_rate=0.2)
        first = full.subject_ids[0]
        keep = np.array([s != first or v < 2     # too short for one window
                         for s, v in zip(full.subject_ids, full.visits)])
        table = VisitTable([s for s, k in zip(full.subject_ids, keep) if k],
                           full.visits[keep], full.X[keep], full.Y[keep])
        fold = materialize_fold(table, table.unique_subjects()[:1], seed=0)
        table = table.with_features(fold.preprocessor.transform(table.X))
        model = NkmModel(arch, seed=4)
        w = arch.window
        want = []
        for i, subject in enumerate(table.unique_subjects()):
            rows = [r for r, s in enumerate(table.subject_ids) if s == subject]
            rows.sort(key=lambda r: table.visits[r])
            if len(rows) >= w:
                stack = np.stack([table.X[rows[e - w + 1:e + 1]]
                                  for e in range(w - 1, len(rows))])
                with no_grad():
                    fwd = model.forward(stack)
                want.append((i, fwd.z_last.data, fwd.control.data))
        calls = []
        forward = model.forward
        model.forward = lambda *a, **kw: calls.append(1) or forward(*a, **kw)
        Z, C, seq = _bound_states(model, table)
        assert len(calls) == 1
        assert len(want) == 6 and len(np.unique(seq)) == 6
        assert Z.shape == C.shape == (sum(len(z) for _, z, _ in want), arch.d_z)
        for i, z_ref, c_ref in want:
            assert np.array_equal(np.flatnonzero(seq == i),
                                  np.arange(len(z_ref)) + np.searchsorted(seq, i))
            assert np.allclose(Z[seq == i], z_ref, rtol=0.0, atol=atol)
            assert np.allclose(C[seq == i], c_ref, rtol=0.0, atol=atol)

    def test_unprojected_norm_raises_domain_error(self):
        table = long_cohort(seed=1)
        fold = materialize_fold(table, table.unique_subjects()[:2], seed=1)
        model = NkmModel(tiny_arch(), seed=2)
        model.K.data = 1.2 * np.eye(model.arch.d_z)
        test_table = table.subset_subjects(fold.test_subjects)
        test_table = test_table.with_features(
            fold.preprocessor.transform(test_table.X))
        with pytest.raises(ValueError, match="requires"):
            verify_bound(model, test_table, tau_max=5)

    def test_edmd_ridge_passes(self):
        # driftless linear system, identity dictionary, small ridge: the
        # operator norm stays near 0.9 and residuals sit well above float noise
        cfg = SyntheticConfig(n_subjects=6, visits_per_subject=24,
                              latent_dim=3, noise_sd=0.0, drift_sd=0.0,
                              base_drift_scale=0.0, observation="identity")
        table, _ = generate_synthetic(cfg, seed=2)
        model = EdmdModel(EdmdConfig(n_centers=0, include_constant=False,
                                     alpha=1e-6)).fit(table)
        assert model.spectral_norm() < 1.0
        report = verify_bound(model, table, tau_max=20)
        assert report.passed
        assert report.eps_tilde > 0.0

    def test_tau_max_one_trivially_passes(self):
        table = long_cohort(seed=3, visits=6)
        fold = materialize_fold(table, table.unique_subjects()[:2], seed=3)
        model = NkmModel(tiny_arch(), seed=3)
        model.project_spectral(0.95)
        test_table = table.subset_subjects(fold.test_subjects)
        test_table = test_table.with_features(
            fold.preprocessor.transform(test_table.X))
        report = verify_bound(model, test_table, tau_max=1)
        assert report.passed and len(report.empirical) == 1

    def test_too_short_sequences_rejected(self):
        table = long_cohort(seed=4, visits=5)
        fold = materialize_fold(table, table.unique_subjects()[:2], seed=4)
        model = NkmModel(tiny_arch(), seed=4)
        model.project_spectral(0.95)
        test_table = table.subset_subjects(fold.test_subjects)
        test_table = test_table.with_features(
            fold.preprocessor.transform(test_table.X))
        with pytest.raises(ValueError, match="tau_max"):
            verify_bound(model, test_table, tau_max=20)

    def test_norm_k_is_exact_svd_norm(self):
        # clustered singular values: a block power iteration stays below 0.95
        table = long_cohort(seed=3, visits=6)
        fold = materialize_fold(table, table.unique_subjects()[:2], seed=3)
        model = NkmModel(tiny_arch(d_z=24), seed=3)
        rng = np.random.default_rng(0)
        U, _ = np.linalg.qr(rng.standard_normal((24, 24)))
        V, _ = np.linalg.qr(rng.standard_normal((24, 24)))
        model.K.data = U @ np.diag(np.linspace(0.95, 0.93, 24)) @ V.T
        test_table = table.subset_subjects(fold.test_subjects)
        test_table = test_table.with_features(
            fold.preprocessor.transform(test_table.X))
        report = verify_bound(model, test_table, tau_max=1)
        assert report.norm_k == float(np.linalg.svd(model.K.data,
                                                    compute_uv=False)[0])
        assert report.norm_k == pytest.approx(0.95, abs=1e-12)

    def test_report_round_trips_to_dict(self):
        r = BoundReport(0.1, 0.5, 0.4, [1], [0.1], [0.1], 0.2, True)
        d = r.to_dict()
        assert d["passed"] is True and d["taus"] == [1]


class TestVerifyDescent:
    def make_windows(self, seed, n_subjects=12, visits=5):
        cfg = SyntheticConfig(n_subjects=n_subjects, visits_per_subject=visits,
                              latent_dim=3, noise_sd=0.05, drift_sd=0.05)
        table, _ = generate_synthetic(cfg, seed=seed)
        fold = materialize_fold(table, table.unique_subjects()[:2], seed=seed)
        return fold.train

    def test_full_model_descends(self):
        windows = self.make_windows(0)
        model = NkmModel(tiny_arch(), seed=1)
        report = verify_descent(model, windows, LossConfig(), iters=15)
        assert report.passed
        assert len(report.trace) == 16
        diffs = [b - a for a, b in zip(report.trace, report.trace[1:])]
        assert all(d <= 1e-9 for d in diffs)
        assert report.trace[-1] < report.trace[0]

    def test_lambda_zero_strictly_decreases(self):
        windows = self.make_windows(1)
        model = NkmModel(tiny_arch(), seed=2)
        report = verify_descent(model, windows,
                                LossConfig(lambda_koop=0.0, eta=0.0),
                                iters=10, theta_step=1e-3)
        assert report.passed
        assert all(b < a for a, b in zip(report.trace[:5], report.trace[1:6]))

    def test_negative_control_fails(self):
        windows = self.make_windows(2)
        model = NkmModel(tiny_arch(), seed=3)
        report = verify_descent(model, windows, LossConfig(), iters=8,
                                theta_step=1e6, backtracking=False)
        assert not report.passed

    def test_keeps_operator_inside_ball(self):
        windows = self.make_windows(3)
        model = NkmModel(tiny_arch(), seed=4)
        verify_descent(model, windows, LossConfig(rho=0.9), iters=5)
        assert np.linalg.svd(model.K.data, compute_uv=False)[0] <= 0.9 + 1e-8


class TestLatentExport:
    def test_rollout_halves_norm_with_half_identity(self):
        table = long_cohort(seed=5, visits=6)
        windows = build_windows(table, w=3)
        # imputation-free path: this cohort has no missing entries
        model = NkmModel(tiny_arch(), seed=5,
                         ablation=AblationFlags(no_control=True))
        model.K.data = 0.5 * np.eye(model.arch.d_z)
        traj = rollout_latents(model, windows, steps=4)
        for j in range(4):
            assert np.array_equal(traj[:, j + 1], 0.5 * traj[:, j])

    def test_pca_orthonormal_columns(self):
        rng = np.random.default_rng(6)
        Z = rng.normal(size=(40, 8)) @ np.diag([5, 3, 1, 1, 1, 1, 0.2, 0.1])
        mean, proj = fit_pca(Z)
        assert proj.shape == (8, 2)
        assert np.allclose(proj.T @ proj, np.eye(2), atol=1e-10)
        assert mean.shape == (8,)

    def test_row_count_and_determinism(self):
        table = long_cohort(seed=7, visits=6)
        windows = build_windows(table, w=3)
        model = NkmModel(tiny_arch(), seed=6)
        rows1 = export_latents(model, windows, rollout_steps=5)
        rows2 = export_latents(model, windows, rollout_steps=5)
        assert len(rows1) == len(windows) * 6
        assert rows1 == rows2
        steps = {r["step"] for r in rows1}
        assert steps == set(range(6))
        assert all(r["label"] == "" for r in rows1)

    def test_csv_write(self, tmp_path):
        table = long_cohort(seed=8, visits=6)
        windows = build_windows(table, w=3)
        model = NkmModel(tiny_arch(), seed=7)
        rows = export_latents(model, windows, rollout_steps=2,
                              labels={windows.subjects[0]: "grp"})
        path = tmp_path / "latents.csv"
        write_latents_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "subject_id,window_index,step,pc1,pc2,label"
        assert len(lines) == len(rows) + 1
        assert lines[1].endswith("grp")


class TestFeatureImportance:
    def test_zeroed_feature_has_exactly_zero_importance(self):
        table = long_cohort(seed=9, n_subjects=12, visits=5)
        feature = "CSF_TAU"
        f_idx = FEATURE_COLUMNS.index(feature)
        within = GROUP_COLUMNS["csf"].index(feature)

        def factory(run_seed):
            model = NkmModel(tiny_arch(), seed=run_seed)
            model.params["enc.csf.0.W"].data[within, :] = 0.0
            return model

        report = feature_importance(table, runs=2, seed=0, arch=tiny_arch(),
                                    model_factory=factory, train_models=False)
        assert report.mean_importance[f_idx] == 0.0
        for t in report.per_target:
            assert report.per_target[t][f_idx] == 0.0

    def test_report_structure(self):
        table = long_cohort(seed=10, n_subjects=12, visits=5)
        report = feature_importance(table, runs=2, seed=1, arch=tiny_arch(),
                                    train_models=False)
        assert len(report.features) == 44
        assert len(report.mean_importance) == 44
        assert all(0.0 <= f <= 1.0 for f in report.top10_frequency)
        assert sum(report.top10_frequency) <= 10.0 + 1e-12
        assert set(report.beta_mean) == set(tiny_arch().groups)
        assert all(math.isfinite(v) for v in report.mean_importance)
        assert "permutation" in report.method
        d = report.to_dict()
        assert d["runs"] == 2 and len(d["top10_frequency"]) == 44

    def test_deterministic_given_seed(self):
        table = long_cohort(seed=11, n_subjects=12, visits=5)
        a = feature_importance(table, runs=2, seed=2, arch=tiny_arch(),
                               train_models=False)
        b = feature_importance(table, runs=2, seed=2, arch=tiny_arch(),
                               train_models=False)
        assert a.mean_importance == b.mean_importance
        assert a.top10_frequency == b.top10_frequency

    def test_run_validation(self):
        table = long_cohort(seed=12, n_subjects=6, visits=5)
        with pytest.raises(ValueError):
            feature_importance(table, runs=0)
