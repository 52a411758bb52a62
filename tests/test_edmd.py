"""RBF lifting, operator solves, exact recovery on linear dynamics."""
from __future__ import annotations

import numpy as np
import pytest

from nkm.data import build_windows, materialize_fold
from nkm.edmd import (EdmdConfig, EdmdModel, RbfDictionary, fit_dictionary,
                      fit_edmd)
from nkm.synthetic import SyntheticConfig, generate_synthetic


def linear_cohort(seed=0, n_subjects=30, visits=8, drift=True):
    cfg = SyntheticConfig(n_subjects=n_subjects, visits_per_subject=visits,
                          latent_dim=4, noise_sd=0.0, target_noise_sd=0.0,
                          drift_sd=0.0,
                          base_drift_scale=0.05 if drift else 0.0,
                          observation="identity")
    return generate_synthetic(cfg, seed=seed)


class TestDictionary:
    def test_rbf_entry_is_one_at_center(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 5))
        d = fit_dictionary(X, EdmdConfig(n_centers=6, include_identity=False,
                                         include_constant=False, seed=1))
        lifted = d.lift(d.centers)
        assert np.allclose(np.diag(lifted), 1.0, atol=1e-12)
        assert np.all(lifted <= 1.0 + 1e-12)

    @pytest.mark.parametrize("identity", [False, True])
    @pytest.mark.parametrize("constant", [False, True])
    def test_lift_matches_pairwise_reference(self, identity, constant):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(25, 6))
        d = fit_dictionary(X, EdmdConfig(n_centers=8, include_identity=identity,
                                         include_constant=constant, seed=2))
        Z = rng.normal(size=(11, 6))
        sq = np.array([[np.sum((z - c) ** 2) for c in d.centers] for z in Z])
        blocks = [np.exp(-sq / (2.0 * d.bandwidth ** 2))]
        if identity:
            blocks.append(Z)
        if constant:
            blocks.append(np.ones((11, 1)))
        assert np.allclose(d.lift(Z), np.hstack(blocks), rtol=0.0, atol=1e-12)

    def test_lifted_dim_counts(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 7))
        d = fit_dictionary(X, EdmdConfig(n_centers=10, seed=0))
        assert d.lifted_dim == 10 + 7 + 1
        assert d.lift(X).shape == (30, 18)

    def test_constant_block_always_one(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 4))
        d = fit_dictionary(X, EdmdConfig(n_centers=3, seed=0))
        assert np.all(d.lift(X)[:, -1] == 1.0)

    def test_identity_block_passthrough(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(9, 4))
        d = fit_dictionary(X, EdmdConfig(n_centers=2, seed=0))
        assert np.array_equal(d.lift(X)[:, d.identity_slice], X)

    def test_bandwidth_median_heuristic(self):
        X = np.array([[0.0], [1.0], [3.0]])
        d = fit_dictionary(X, EdmdConfig(n_centers=3, seed=0))
        # pairwise distances {1, 2, 3}: median 2
        assert d.bandwidth == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_centers_fall_back(self):
        X = np.ones((5, 3))
        d = fit_dictionary(X, EdmdConfig(n_centers=4, seed=0))
        assert d.bandwidth == 1.0
        d0 = fit_dictionary(X, EdmdConfig(n_centers=0, seed=0))
        assert d0.centers.shape == (0, 3)
        assert d0.lifted_dim == 4

    def test_centers_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 6))
        a = fit_dictionary(X, EdmdConfig(n_centers=8, seed=5))
        b = fit_dictionary(X, EdmdConfig(n_centers=8, seed=5))
        c = fit_dictionary(X, EdmdConfig(n_centers=8, seed=6))
        assert np.array_equal(a.centers, b.centers)
        assert not np.array_equal(a.centers, c.centers)

    def test_lift_validation(self):
        d = RbfDictionary(np.zeros((2, 3)), 1.0, True, True)
        with pytest.raises(ValueError):
            d.lift(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            d.lift(np.array([[np.nan, 0.0, 0.0]]))
        with pytest.raises(ValueError):
            RbfDictionary(np.zeros((2, 3)), 0.0, True, True)


class TestOperatorSolve:
    def test_exact_on_linear_map(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(4, 4)) * 0.3
        X = rng.normal(size=(60, 4))
        Y = X @ A.T
        K = fit_edmd(X, Y, alpha=0.0)
        assert np.linalg.norm(K - A) < 1e-10

    def test_gramian_symmetric_psd(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(25, 6))
        G = X.T @ X / 25
        assert np.allclose(G, G.T, atol=1e-14)
        assert np.linalg.eigvalsh(G)[0] >= -1e-10

    def test_ridge_path_matches_pinv_on_full_rank(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(5, 5))
        X = rng.normal(size=(80, 5))
        Y = X @ A.T + 0.01 * rng.normal(size=(80, 5))
        K0 = fit_edmd(X, Y, alpha=0.0)
        K1 = fit_edmd(X, Y, alpha=1e-12)
        assert np.linalg.norm(K0 - K1) < 1e-6

    def test_large_ridge_shrinks_operator(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 4))
        Y = rng.normal(size=(40, 4))
        norms = [np.linalg.norm(fit_edmd(X, Y, alpha=a))
                 for a in (1.0, 10.0, 100.0, 1000.0)]
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_rank_of_a_singular_gram_matrix(self):
        # the third lifted column repeats the first, so G has rank 2 of 3
        X = np.random.default_rng(9).normal(size=(30, 2))
        X = np.hstack([X, X[:, :1]])
        K, rank = fit_edmd(X, X, return_rank=True)
        assert rank == 2
        assert np.array_equal(K, fit_edmd(X, X))
        assert fit_edmd(X, X, alpha=1e-3, return_rank=True)[1] is None

    def test_model_records_the_gram_rank(self):
        # every one-hot block sums to 1, a multiple of the constant column
        cfg = SyntheticConfig(n_subjects=12, visits_per_subject=5)
        table, _ = generate_synthetic(cfg, seed=2)
        fold = materialize_fold(table, table.unique_subjects()[:3], seed=2)
        model = EdmdModel(EdmdConfig(n_centers=10)).fit(fold.table)
        assert model.rank_ <= model.dictionary.lifted_dim - 4
        assert model.rank_ >= 1
        assert EdmdModel(EdmdConfig(n_centers=10, alpha=1e-3)).fit(
            fold.table).rank_ is None

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_edmd(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            fit_edmd(np.zeros((0, 2)), np.zeros((0, 2)))

    @pytest.mark.parametrize("field,value", [
        ("alpha", float("nan")), ("alpha", float("inf")),
        ("readout_alpha", float("nan")), ("readout_alpha", float("inf"))])
    def test_config_refuses_non_finite_ridges(self, field, value):
        # alpha=nan ran as alpha=0 (nan > 0 is False); alpha=inf and
        # readout_alpha=nan gave NaN forecasts
        with pytest.raises(ValueError, match=f"^{field} must be a finite"):
            EdmdConfig(**{field: value})


class TestExactRecovery:
    def test_recovers_true_dynamics_block(self):
        table, sidecar = linear_cohort(seed=0)
        model = EdmdModel(EdmdConfig(n_centers=0, alpha=0.0))
        model.fit(table)
        A = np.asarray(sidecar["A"])
        d = A.shape[0]
        sl = model.dictionary.identity_slice
        K_state = model.K[sl, sl][:d, :d]
        assert np.linalg.norm(K_state - A) < 1e-8

    def test_recovers_drift_in_constant_column(self):
        table, sidecar = linear_cohort(seed=1)
        model = EdmdModel(EdmdConfig(n_centers=0, alpha=0.0)).fit(table)
        A = np.asarray(sidecar["A"])
        d = A.shape[0]
        b_col = model.K[model.dictionary.identity_slice, -1][:d]
        assert np.linalg.norm(b_col - sidecar["b0"]) < 1e-8

    def test_ten_step_rollout_error(self):
        table, sidecar = linear_cohort(seed=2, visits=12)
        model = EdmdModel(EdmdConfig(n_centers=0, alpha=0.0)).fit(table)
        ids = np.asarray(table.subject_ids)
        rows = np.flatnonzero(ids == table.unique_subjects()[0])
        psi = model.lift(table.X[rows[:1]])
        A = np.asarray(sidecar["A"])
        d = A.shape[0]
        for tau in range(1, 11):
            pred_state = model.advance(psi, tau)[0, model.dictionary.identity_slice][:d]
            true_state = table.X[rows[tau], :d]
            assert np.linalg.norm(pred_state - true_state) < 1e-6

    def test_stable_norm_without_drift(self):
        # identity-only dictionary on a driftless system: operator norm
        # matches the latent dynamics norm (0.9), strictly below 1
        table, _ = linear_cohort(seed=3, drift=False)
        model = EdmdModel(EdmdConfig(n_centers=0, include_constant=False,
                                     alpha=0.0)).fit(table)
        assert model.spectral_norm() == pytest.approx(0.9, abs=1e-8)


class TestForecastApi:
    def test_tau_zero_is_readout_of_current(self):
        table, _ = linear_cohort(seed=4)
        model = EdmdModel(EdmdConfig(n_centers=5, seed=0)).fit(table)
        x = table.X[:3]
        want = model.lift(x) @ model.readout
        assert np.allclose(model.forecast(x, tau=0), want, atol=1e-12)

    def test_predict_uses_last_visit(self):
        table, _ = linear_cohort(seed=5)
        model = EdmdModel(EdmdConfig(n_centers=5, seed=0)).fit(table)
        windows = build_windows(table, w=3)
        got = model.predict(windows.X)
        want = model.forecast(windows.X[:, -1, :], tau=1)
        assert np.array_equal(got, want)
        assert got.shape == (len(windows), 3)

    def test_noiseless_forecast_is_accurate(self):
        table, _ = linear_cohort(seed=6)
        model = EdmdModel(EdmdConfig(n_centers=0, alpha=0.0)).fit(table)
        windows = build_windows(table, w=3)
        err = np.abs(model.predict_windows(windows) - windows.y)
        assert np.max(err) < 1e-6

    def test_unfitted_and_bad_inputs(self):
        model = EdmdModel()
        with pytest.raises(ValueError, match="not fitted"):
            model.predict(np.zeros((2, 3, 44)))
        with pytest.raises(ValueError, match="not fitted"):
            model.forecast(np.zeros((1, 44)))
        table, _ = linear_cohort(seed=7)
        fitted = EdmdModel(EdmdConfig(n_centers=4, seed=0)).fit(table)
        with pytest.raises(ValueError):
            fitted.predict(np.zeros((2, 44)))
        with pytest.raises(ValueError):
            fitted.advance(fitted.lift(table.X[:1]), tau=-1)

    def test_fit_rejects_nan_features(self):
        cfg = SyntheticConfig(n_subjects=6, visits_per_subject=4,
                              missing_rate=0.3)
        table, _ = generate_synthetic(cfg, seed=8)
        with pytest.raises(ValueError, match="finite"):
            EdmdModel().fit(table)

    def test_fold_pipeline_smoke(self):
        cfg = SyntheticConfig(n_subjects=20, visits_per_subject=6,
                              noise_sd=0.05, missing_rate=0.1)
        table, _ = generate_synthetic(cfg, seed=9)
        fold = materialize_fold(table, table.unique_subjects()[:4], seed=0)
        train_table = fold.table.subset_subjects(fold.train_subjects
                                                 + fold.val_subjects)
        model = EdmdModel(EdmdConfig(n_centers=20, seed=0)).fit(train_table)
        pred = model.predict_windows(fold.test)
        assert pred.shape == (len(fold.test), 3)
        assert np.all(np.isfinite(pred))

