"""Loss decomposition, closed-form Koopman updates, metrics, training loops."""
from __future__ import annotations

import math

import numpy as np
import pytest

from nkm import training
from nkm.data import Preprocessor, build_windows, materialize_fold
from nkm.model import AblationFlags, ArchConfig, NkmModel
from nkm.optim import OptimConfig
from nkm.synthetic import SyntheticConfig, generate_synthetic
from nkm.tensor import Tensor, mul
from nkm.training import (CvResult, LossConfig, composite_loss, evaluate,
                          evaluate_predictions, koopman_covariances,
                          koopman_fixed_point, koopman_grad_closed_form,
                          model_covariances, pearson, run_ablation, run_cv,
                          run_edmd_cv, spearman, subject_batches, train,
                          _rank_average_ties)


def tiny_arch(**kw):
    base = dict(d_z=8, n_heads=2,
                group_hidden={"genetic": (6, 4), "csf": (6, 4), "pet": (6, 4),
                              "mri": (6, 4), "demo": (6, 4)},
                n_refine_blocks=2, n_decoder_blocks=2, dropout=0.0)
    base.update(kw)
    return ArchConfig(**base)


def tiny_batch(rng, B=6, w=3):
    X = rng.normal(size=(B, w, 44))
    y = rng.normal(size=(B, 3))
    return X, y


def small_cohort(seed=0, n_subjects=24, visits=5):
    cfg = SyntheticConfig(n_subjects=n_subjects, visits_per_subject=visits,
                          latent_dim=3, noise_sd=0.05, drift_sd=0.05)
    table, _ = generate_synthetic(cfg, seed=seed)
    return table


def fast_optim(**kw):
    base = dict(lr=3e-3, epochs=4, batch_size=32, early_stop_patience=10,
                plateau_patience=5)
    base.update(kw)
    return OptimConfig(**base)


class TestCompositeLoss:
    def test_total_is_bitwise_sum_of_parts(self):
        rng = np.random.default_rng(0)
        model = NkmModel(tiny_arch(), seed=1)
        X, y = tiny_batch(rng)
        cfg = LossConfig()
        total, parts, _ = composite_loss(model, X, y, cfg)
        recombined = (parts["L_pred"] + cfg.lambda_koop * parts["L_koop"]) \
            + parts["R_spec"]
        assert float(total.data) == recombined

    def test_pred_term_matches_recompute(self):
        rng = np.random.default_rng(1)
        model = NkmModel(tiny_arch(), seed=2)
        X, y = tiny_batch(rng)
        _, parts, fwd = composite_loss(model, X, y, LossConfig())
        want = np.sum((fwd.pred.data - y) ** 2) * (1.0 / X.shape[0])
        assert parts["L_pred"] == pytest.approx(want, rel=1e-15)

    def test_koop_term_matches_recompute(self):
        rng = np.random.default_rng(2)
        model = NkmModel(tiny_arch(), seed=3)
        X, y = tiny_batch(rng, B=5)
        _, parts, fwd = composite_loss(model, X, y, LossConfig())
        K = model.K.data
        c = fwd.control.data
        z = fwd.z.data.reshape(model.arch.window, X.shape[0], -1)
        acc = 0.0
        for t in range(len(z) - 1):
            r = z[t + 1] - (z[t] @ K.T + c)
            acc += np.sum(r * r)
        want = acc / (X.shape[0] * (len(z) - 1))
        assert parts["L_koop"] == pytest.approx(want, rel=1e-12)

    def test_spec_penalty_hand_value_at_unit_norm(self):
        # sigma=1, rho=0.95, eta=0.01: 0.01 * (1 - 0.9025)^2 = 9.50625e-5
        rng = np.random.default_rng(3)
        model = NkmModel(tiny_arch(), seed=4)
        model.K.data = np.eye(model.arch.d_z)
        X, y = tiny_batch(rng)
        _, parts, _ = composite_loss(model, X, y, LossConfig())
        assert parts["R_spec"] == pytest.approx(9.50625e-5, rel=1e-10)

    def test_spec_penalty_zero_inside_ball(self):
        rng = np.random.default_rng(4)
        model = NkmModel(tiny_arch(), seed=5)
        model.K.data = 0.5 * np.eye(model.arch.d_z)
        X, y = tiny_batch(rng)
        _, parts, _ = composite_loss(model, X, y, LossConfig())
        assert parts["R_spec"] == 0.0

    def test_eta_zero_and_ablation_drop_penalty(self):
        rng = np.random.default_rng(5)
        X, y = tiny_batch(rng)
        m1 = NkmModel(tiny_arch(), seed=6)
        m1.K.data = 2.0 * np.eye(m1.arch.d_z)
        _, parts, _ = composite_loss(m1, X, y, LossConfig(eta=0.0))
        assert parts["R_spec"] == 0.0
        m2 = NkmModel(tiny_arch(), seed=6,
                      ablation=AblationFlags(no_spectral_reg=True))
        m2.K.data = 2.0 * np.eye(m2.arch.d_z)
        _, parts2, _ = composite_loss(m2, X, y, LossConfig())
        assert parts2["R_spec"] == 0.0

    def test_nonfinite_component_named(self):
        rng = np.random.default_rng(6)
        model = NkmModel(tiny_arch(), seed=7)
        model.params["dec.head.W"].data[0, 0] = np.nan
        X, y = tiny_batch(rng)
        with pytest.raises(RuntimeError, match="L_pred"):
            composite_loss(model, X, y, LossConfig())

    def test_target_validation(self):
        rng = np.random.default_rng(7)
        model = NkmModel(tiny_arch(), seed=8)
        X, y = tiny_batch(rng)
        with pytest.raises(ValueError):
            composite_loss(model, X, y[:-1], LossConfig())
        y2 = y.copy()
        y2[0, 0] = np.nan
        with pytest.raises(ValueError):
            composite_loss(model, X, y2, LossConfig())


class TestLossConfig:
    @pytest.mark.parametrize("field,value", [
        ("eta", float("nan")), ("eta", float("inf")),
        ("rho", float("inf")), ("rho", float("nan")),
        ("lambda_koop", float("nan")), ("lambda_koop", float("inf"))])
    def test_refuses_non_finite_values(self, field, value):
        # eta=nan turned R_spec off (nan > 0 is False), rho=inf turned off
        # the hinge and the projection, and lambda_koop=nan died in epoch 1
        with pytest.raises(ValueError, match=f"^{field} must be a finite"):
            LossConfig(**{field: value})


class TestKoopmanClosedForm:
    def test_tape_gradient_matches_closed_form(self):
        # L_pred and R_spec are excluded: backprop lambda * L_koop alone.
        rng = np.random.default_rng(8)
        model = NkmModel(tiny_arch(), seed=9)
        X, _ = tiny_batch(rng, B=7)
        lam = 0.37
        fwd = model.forward(X)
        from nkm.tensor import add, square, sub, take_rows, tsum
        B, w = X.shape[0], model.arch.window
        zs = [take_rows(fwd.z, slice(t * B, (t + 1) * B)) for t in range(w)]
        acc = None
        for t in range(w - 1):
            r = sub(zs[t + 1], model.koopman_step(zs[t], fwd.control))
            s = tsum(square(r))
            acc = s if acc is None else add(acc, s)
        loss = mul(acc, lam / (B * (w - 1)))
        model.params.zero_grad()
        loss.backward()
        covs = koopman_covariances(fwd.z.data, fwd.control.data)
        want = koopman_grad_closed_form(model.K.data, covs, lam)
        assert np.max(np.abs(model.K.grad - want)) < 1e-10

    def test_closed_form_matches_finite_differences(self):
        # z_refs and c do not depend on K, so L_koop(K) is exactly quadratic.
        rng = np.random.default_rng(9)
        d = 5
        z_refs = [rng.normal(size=(11, d)) for _ in range(3)]
        c = rng.normal(size=(11, d))
        covs = koopman_covariances(np.concatenate(z_refs), c)
        lam = 0.1

        def loss_at(K):
            acc = 0.0
            for t in range(len(z_refs) - 1):
                r = z_refs[t + 1] - (z_refs[t] @ K.T + c)
                acc += np.sum(r * r)
            return lam * acc / (11 * (len(z_refs) - 1))

        K0 = rng.normal(size=(d, d))
        g = koopman_grad_closed_form(K0, covs, lam)
        h = 1e-6
        for (i, j) in [(0, 0), (1, 3), (4, 2), (2, 4)]:
            Kp = K0.copy(); Kp[i, j] += h
            Km = K0.copy(); Km[i, j] -= h
            fd = (loss_at(Kp) - loss_at(Km)) / (2 * h)
            assert fd == pytest.approx(g[i, j], rel=1e-6, abs=1e-10)

    def test_gradient_vanishes_at_fixed_point(self):
        rng = np.random.default_rng(10)
        d = 6
        z_refs = [rng.normal(size=(40, d)) for _ in range(3)]
        c = rng.normal(size=(40, d))
        covs = koopman_covariances(np.concatenate(z_refs), c)
        k_star = koopman_fixed_point(covs)
        g = koopman_grad_closed_form(k_star, covs, 0.1)
        assert np.max(np.abs(g)) < 1e-10

    @pytest.mark.parametrize("d_z", [8, 48], ids=["d_z<M", "d_z>M"])
    def test_transition_step_size_equals_the_covariance_one(self, d_z):
        # train reads lambda_max(C_zz) as sigma_max(Z_t)^2 / M; at M = 14
        # transitions the Gram matrix is 14 x 14 when d_z = 48
        rng = np.random.default_rng(13)
        model = NkmModel(tiny_arch(d_z=d_z), seed=14)
        X, _ = tiny_batch(rng, B=7)
        fwd = model.forward(X)
        lam = 0.37
        c_zz = koopman_covariances(fwd.z.data, fwd.control.data)[0]
        want = training._safe_koopman_step_size(c_zz, lam)
        got = training._transition_step_size(fwd.z.data, 7, lam)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        # the symmetric eigensolve on C_zz itself
        top = np.linalg.eigvalsh(c_zz)[-1]
        assert want == pytest.approx(0.5 / (lam * top), rel=1e-12, abs=0.0)

    def test_step_size_is_zero_without_koopman_loss(self):
        c_zz = np.eye(3)
        assert training._safe_koopman_step_size(c_zz, 0.0) == 0.0
        assert training._safe_koopman_step_size(0.0 * c_zz, 0.1) == 0.0

    def test_model_covariances_shapes(self):
        rng = np.random.default_rng(11)
        model = NkmModel(tiny_arch(), seed=12)
        X, _ = tiny_batch(rng)
        covs = model_covariances(model, X)
        d = model.arch.d_z
        for m in covs:
            assert m.shape == (d, d)
            assert np.all(np.isfinite(m))
        # C_zz is a Gram matrix: symmetric PSD.
        assert np.allclose(covs[0], covs[0].T, atol=1e-12)
        assert np.linalg.eigvalsh(covs[0])[0] > -1e-12


class TestMetrics:
    def test_rank_average_ties(self):
        assert np.array_equal(_rank_average_ties(np.array([3.0, 1.0, 2.0])),
                              [3.0, 1.0, 2.0])
        assert np.array_equal(_rank_average_ties(np.array([5.0, 5.0, 5.0])),
                              [2.0, 2.0, 2.0])
        assert np.array_equal(_rank_average_ties(np.array([1.0, 2.0, 2.0, 3.0])),
                              [1.0, 2.5, 2.5, 4.0])

    def test_pearson_four_point_hand_case(self):
        y_true = np.array([1.0, 2.0, 3.0, 4.0])
        y_pred = np.array([1.1, 1.9, 3.2, 3.8])
        # centered dot = 4.7, sum dx^2 = 5, sum dy^2 = 4.5
        want = 4.7 / math.sqrt(22.5)
        r, deg = pearson(y_true, y_pred)
        assert not deg
        assert r == pytest.approx(want, rel=1e-12)

    def test_spearman_monotone_and_ties(self):
        r, deg = spearman(np.array([1.0, 2.0, 3.0, 4.0]),
                          np.array([1.1, 1.9, 3.2, 3.8]))
        assert not deg and r == pytest.approx(1.0, rel=1e-12)
        # rank x = [1, 2.5, 2.5, 4]: r = 4.5 / sqrt(4.5 * 5)
        r2, _ = spearman(np.array([1.0, 2.0, 2.0, 3.0]),
                         np.array([10.0, 20.0, 30.0, 40.0]))
        assert r2 == pytest.approx(4.5 / math.sqrt(22.5), rel=1e-12)

    def test_degenerate_constant_flags_zero(self):
        r, deg = pearson(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))
        assert r == 0.0 and deg
        r2, deg2 = spearman(np.array([2.0, 2.0]), np.array([1.0, 3.0]))
        assert r2 == 0.0 and deg2

    def test_evaluate_predictions_four_point(self):
        y_true = np.array([[1.0], [2.0], [3.0], [4.0]])
        y_pred = np.array([[1.1], [1.9], [3.2], [3.8]])
        m = evaluate_predictions(y_true, y_pred, ["MMSE"])
        assert m.pearson["MMSE"] == pytest.approx(4.7 / math.sqrt(22.5), rel=1e-12)
        assert m.spearman["MMSE"] == pytest.approx(1.0, rel=1e-12)
        assert m.mae["MMSE"] == pytest.approx(0.15, rel=1e-12)
        assert m.rmse["MMSE"] == pytest.approx(math.sqrt(0.025), rel=1e-12)
        assert not m.degenerate["MMSE"]

    def test_evaluate_predictions_degenerate_target(self):
        y_true = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y_pred = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        m = evaluate_predictions(y_true, y_pred, ["a", "b"])
        assert m.degenerate["b"] and m.pearson["b"] == 0.0
        assert not m.degenerate["a"]
        assert m.mean_pearson == pytest.approx(m.pearson["a"] / 2.0, rel=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            evaluate_predictions(np.zeros((3, 2)), np.zeros((3, 3)), ["a", "b"])


class TestTrainLoop:
    def test_same_seed_identical_parameters(self):
        table = small_cohort(seed=0)
        fold = materialize_fold(table, table.unique_subjects()[:6], seed=0)
        runs = []
        for _ in range(2):
            model = NkmModel(tiny_arch(), seed=3)
            res = train(model, fold.train, fold.val, fast_optim(),
                        LossConfig(), seed=11)
            runs.append((res.model.params.to_vector(),
                         [r["val_loss"] for r in res.history]))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_different_seed_differs(self):
        table = small_cohort(seed=0)
        fold = materialize_fold(table, table.unique_subjects()[:6], seed=0)
        vecs = []
        for s in (11, 12):
            model = NkmModel(tiny_arch(), seed=3)
            res = train(model, fold.train, fold.val, fast_optim(),
                        LossConfig(), seed=s)
            vecs.append(res.model.params.to_vector())
        assert not np.array_equal(vecs[0], vecs[1])

    def test_history_and_best_tracking(self):
        table = small_cohort(seed=1)
        fold = materialize_fold(table, table.unique_subjects()[:6], seed=1)
        model = NkmModel(tiny_arch(), seed=4)
        res = train(model, fold.train, fold.val, fast_optim(epochs=6),
                    LossConfig(), seed=5)
        assert len(res.history) == 6
        vals = [r["val_loss"] for r in res.history]
        assert res.best_val == min(vals)
        assert res.best_epoch == int(np.argmin(vals))
        n_subjects = len(set(fold.train.subjects))
        for row in res.history:
            assert set(row) == {"epoch", "L_pred", "L_koop", "R_spec",
                                "grad_norm", "steps", "val_loss", "lr"}
            assert all(math.isfinite(v) for v in row.values())
            assert row["grad_norm"] > 0.0
            assert 1 <= row["steps"] <= min(n_subjects, -(-len(fold.train) // 32))
        lrs = [r["lr"] for r in res.history]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_final_model_is_projected(self):
        table = small_cohort(seed=2)
        fold = materialize_fold(table, table.unique_subjects()[:6], seed=2)
        model = NkmModel(tiny_arch(), seed=5)
        res = train(model, fold.train, fold.val, fast_optim(epochs=3),
                    LossConfig(rho=0.9), seed=6)
        assert np.linalg.svd(res.model.K.data, compute_uv=False)[0] <= 0.9 + 1e-8

    def test_alternating_mode_moves_and_projects_k(self):
        table = small_cohort(seed=3)
        fold = materialize_fold(table, table.unique_subjects()[:6], seed=3)
        model = NkmModel(tiny_arch(), seed=6)
        k0 = model.K.data.copy()
        res = train(model, fold.train, fold.val, fast_optim(epochs=3),
                    LossConfig(), mode="alternating", seed=7,
                    project_final=False)
        assert not np.array_equal(res.model.K.data, k0)
        assert np.linalg.svd(res.model.K.data, compute_uv=False)[0] <= 0.95 + 1e-8

    @pytest.mark.parametrize("d_z", [8, 64], ids=["d_z<M", "d_z>M"])
    def test_alternating_step_runs_no_full_factorization(self, monkeypatch,
                                                         d_z):
        # each step reads its step size from the M x M or d_z x d_z Gram
        # matrix of the M transition rows, whichever is smaller, and the
        # projection reads ||K||_2 from K's d_z x d_z Gram matrix: no SVD,
        # and no eigensolve of C_zz where M < d_z
        table = small_cohort(seed=3)
        fold = materialize_fold(table, table.unique_subjects()[:6], seed=3)
        model = NkmModel(tiny_arch(d_z=d_z), seed=6)
        svd, eigvalsh = np.linalg.svd, np.linalg.eigvalsh
        step_size = training._transition_step_size
        svd_calls, sides, transitions = [], [], []

        def counted_svd(a, *args, **kwargs):
            svd_calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def counted_eigvalsh(a, *args, **kwargs):
            sides.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        def recorded_step_size(z, B, lambda_koop):
            transitions.append(z.shape[0] - B)
            return step_size(z, B, lambda_koop)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(training, "_transition_step_size",
                            recorded_step_size)
        res = train(model, fold.train, fold.val,
                    fast_optim(epochs=2, batch_size=8), LossConfig(),
                    mode="alternating", seed=7)
        assert svd_calls == []
        assert len(transitions) == sum(r["steps"] for r in res.history) > 2
        if d_z == 64:
            assert max(transitions) < d_z      # every step's Gram is M x M
        else:
            assert max(transitions) > d_z
        want = []
        for M in transitions:
            want += [(min(M, d_z),) * 2, (d_z, d_z)]   # step size, projection
        assert sides == want + [(d_z, d_z)]            # the final projection

    def test_alternating_mode_keeps_k_off_the_tape(self, monkeypatch):
        # K moves by its closed form there, so no backward pass may reach it
        table = small_cohort(seed=3)
        fold = materialize_fold(table, table.unique_subjects()[:6], seed=3)
        model = NkmModel(tiny_arch(), seed=6)
        backward = Tensor.backward
        k_grads = []

        def checked_backward(self):
            backward(self)
            k_grads.append(model.K.grad)

        monkeypatch.setattr(Tensor, "backward", checked_backward)
        train(model, fold.train, fold.val, fast_optim(epochs=2),
              LossConfig(), mode="alternating", seed=7)
        assert len(k_grads) > 0
        assert all(g is None for g in k_grads)

    @pytest.mark.parametrize("mode,nodes", [("joint", 231), ("alternating", 223)],
                             ids=["joint", "alternating"])
    def test_desk_step_tape_node_count(self, monkeypatch, mode, nodes):
        # each dense block and R_spec's power iteration are one node apiece;
        # the latent pass gathers the windows' visits, keys and values
        table = small_cohort(seed=3)
        fold = materialize_fold(table, table.unique_subjects()[:6], seed=3)
        model = NkmModel(ArchConfig(d_z=16, n_heads=4, dropout=0.05), seed=6)
        backward = Tensor.backward
        counts = []

        def counted_backward(self):
            seen, stack = {id(self)}, [self]
            while stack:
                for parent in stack.pop()._parents:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        stack.append(parent)
            counts.append(len(seen))
            backward(self)

        monkeypatch.setattr(Tensor, "backward", counted_backward)
        train(model, fold.train, fold.val, fast_optim(epochs=1, batch_size=64),
              LossConfig(), mode=mode, seed=7)
        assert counts and set(counts) == {nodes}

    def test_step_encodes_each_visit_of_its_subjects_once(self, monkeypatch):
        # 18 train subjects of 5 visits give 2 windows each: a batch of at
        # least 8 windows closes at 4 subjects, whose visits 0-3 are inputs
        table = small_cohort(seed=5)
        fold = materialize_fold(table, table.unique_subjects()[:6], seed=5)
        model = NkmModel(tiny_arch(dropout=0.1), seed=8)
        encoded = []
        encode = model.encode_rows

        def spy(x, train=False, rng=None):
            if train:
                encoded.append(np.array(x))
            return encode(x, train, rng)

        monkeypatch.setattr(model, "encode_rows", spy)
        train(model, fold.train, fold.val, fast_optim(epochs=1, batch_size=8),
              LossConfig(), seed=3)
        first = subject_batches(fold.train.subjects, 8,
                                np.random.default_rng(3))[0]
        batch = {fold.train.subjects[i] for i in first}
        assert len(batch) == 4
        last = {s: fold.table.visits[[t == s for t in fold.table.subject_ids]].max()
                for s in batch}
        want = [fold.table.X[i] for i, s in enumerate(fold.table.subject_ids)
                if s in batch and fold.table.visits[i] < last[s]]
        got = encoded[0]
        assert len(got) == len(want) == 16
        assert {r.tobytes() for r in got} == {r.tobytes() for r in want}

    def test_alternating_mode_restores_k_requires_grad(self):
        table = small_cohort(seed=4)
        fold = materialize_fold(table, table.unique_subjects()[:6], seed=4)
        model = NkmModel(tiny_arch(), seed=7)
        train(model, fold.train, fold.val, fast_optim(epochs=1), LossConfig(),
              mode="alternating", seed=8)
        assert model.K.requires_grad
        model.params["dec.head.b"].data[0] = np.inf
        with pytest.raises(RuntimeError, match="epoch 0"):
            train(model, fold.train, fold.val, fast_optim(), LossConfig(),
                  mode="alternating", seed=8)
        assert model.K.requires_grad

    def test_nan_abort_names_component_and_epoch(self):
        table = small_cohort(seed=4)
        fold = materialize_fold(table, table.unique_subjects()[:6], seed=4)
        model = NkmModel(tiny_arch(), seed=7)
        model.params["dec.head.b"].data[0] = np.inf
        with pytest.raises(RuntimeError, match=r"epoch 0: .*L_pred"):
            train(model, fold.train, fold.val, fast_optim(), LossConfig(),
                  seed=8)

    def test_mode_and_empty_validation(self):
        table = small_cohort(seed=5)
        fold = materialize_fold(table, table.unique_subjects()[:6], seed=5)
        model = NkmModel(tiny_arch(), seed=8)
        with pytest.raises(ValueError):
            train(model, fold.train, fold.val, mode="warmup")
        empty = build_windows(table.subset_subjects([]), w=3)
        with pytest.raises(ValueError):
            train(model, empty, fold.val)


class TestSelection:
    """One best-epoch record drives the lr decay, the early stop and the
    restore. `_val_loss` is scripted, so each epoch's validation loss is
    known; a lower value is a new best, an equal one is not."""

    LR = 1e-3

    def run(self, monkeypatch, vals, plateau_patience, early_stop_patience):
        table = small_cohort(seed=7)
        fold = materialize_fold(table, table.unique_subjects()[:6], seed=7)
        script = iter(vals)
        monkeypatch.setattr(training, "_val_loss", lambda *args: next(script))
        res = train(NkmModel(tiny_arch(), seed=1), fold.train, fold.val,
                    fast_optim(lr=self.LR, epochs=len(vals),
                               plateau_patience=plateau_patience,
                               early_stop_patience=early_stop_patience),
                    LossConfig(), seed=2)
        return [r["lr"] for r in res.history], res

    def test_plateau_halves_after_patience_and_a_best_resets(self, monkeypatch):
        # stale epochs 1-3 after epoch 0: the third exceeds patience 2 and
        # halves the lr for the next epoch; the new best at epoch 4 restarts
        # the count
        vals = [1.0, 1.0, 1.0, 1.0, 0.5, 0.9, 0.9, 0.9, 0.9]
        lrs, res = self.run(monkeypatch, vals, 2, 20)
        assert lrs == [self.LR * f for f in (1, 1, 1, 1, .5, .5, .5, .5, .25)]
        assert len(res.history) == len(vals)
        assert (res.best_epoch, res.best_val) == (4, 0.5)

    def test_stops_after_patience_stale_epochs(self, monkeypatch):
        vals = [1.0, 0.9, 0.95, 0.95, 0.95, 0.1, 0.1]
        lrs, res = self.run(monkeypatch, vals, 8, 3)
        assert len(res.history) == 5            # the third stale epoch is the last
        assert lrs == [self.LR] * 5
        assert (res.best_epoch, res.best_val) == (1, 0.9)

    def test_plateau_patience_zero_decays_every_stale_epoch(self, monkeypatch):
        vals = [1.0, 1.0, 0.5, 0.7, 0.7, 0.4]
        lrs, res = self.run(monkeypatch, vals, 0, 20)
        assert lrs == [self.LR * f for f in (1, 1, .5, .5, .25, .125)]
        assert (len(res.history), res.best_epoch) == (6, 5)

    def test_early_stop_patience_zero_stops_at_the_first_stale_epoch(
            self, monkeypatch):
        vals = [1.0, 0.9, 0.9, 0.1]
        lrs, res = self.run(monkeypatch, vals, 0, 0)
        assert lrs == [self.LR] * 3
        assert (len(res.history), res.best_epoch) == (3, 1)

    def test_restores_the_best_epochs_parameters(self, monkeypatch):
        # the parameters after epoch 1 of a 2-epoch run are those of best
        # epoch 1 in a longer run that never improves on it
        _, short = self.run(monkeypatch, [1.0, 0.5], 8, 20)
        _, long = self.run(monkeypatch, [1.0, 0.5, 0.6, 0.6], 8, 20)
        assert np.array_equal(short.model.params.to_vector(),
                              long.model.params.to_vector())


class TestCrossValidation:
    def test_run_cv_structure(self):
        table = small_cohort(seed=6, n_subjects=18)
        res = run_cv(table, arch=tiny_arch(), optim_cfg=fast_optim(epochs=2),
                     loss_cfg=LossConfig(), k=3, seed=0)
        assert isinstance(res, CvResult) and res.setup == "full"
        assert len(res.folds) == 3
        assert len(res.fold_mean_pearson()) == 3
        assert math.isfinite(res.mean_pearson())
        rows = res.rows()
        assert len(rows) == 3 * 3
        assert {r["fold"] for r in rows} == {0, 1, 2}
        assert all(r["setup"] == "full" for r in rows)

    def test_run_cv_deterministic(self):
        table = small_cohort(seed=7, n_subjects=18)
        a = run_cv(table, arch=tiny_arch(), optim_cfg=fast_optim(epochs=2),
                   k=3, seed=1)
        b = run_cv(table, arch=tiny_arch(), optim_cfg=fast_optim(epochs=2),
                   k=3, seed=1)
        assert a.fold_mean_pearson() == b.fold_mean_pearson()

    def test_run_ablation_labels(self):
        table = small_cohort(seed=8, n_subjects=18)
        out = run_ablation(table, setups=["full", "no_control"],
                           arch=tiny_arch(), optim_cfg=fast_optim(epochs=2),
                           k=3, seed=2)
        assert [r.setup for r in out] == ["full", "no_control"]
        for r in out:
            assert len(r.folds) == 3

    @pytest.mark.parametrize("setups,message", [
        (["full", "full"], "setups name 'full' more than once"),
        (["no_control", "full", "no_control"],
         "setups name 'no_control' more than once"),
        ([], "setups must name at least one setup"),
        (["full", "nope"], "unknown ablation setup 'nope'")])
    def test_run_ablation_refuses_bad_setups_before_training(
            self, monkeypatch, setups, message):
        # a repeated setup wrote two runs under one key, and an empty list an
        # empty report; an unknown name was refused only after the setups
        # before it had trained
        import nkm.training as training
        monkeypatch.setattr(training, "run_cv", lambda *a, **kw:
                            pytest.fail("trained before refusing the setups"))
        with pytest.raises(ValueError, match=f"^{message}"):
            run_ablation(small_cohort(seed=8, n_subjects=18), setups=setups)

    def test_run_edmd_cv_imputes_each_fold_once(self, monkeypatch):
        # EDMD fits on the fold's imputed table; it transformed its
        # train+val rows a second time
        cfg = SyntheticConfig(n_subjects=18, visits_per_subject=5,
                              missing_rate=0.2)
        table, _ = generate_synthetic(cfg, seed=3)
        rows = []
        transform = Preprocessor.transform
        monkeypatch.setattr(Preprocessor, "transform", lambda self, X:
                            rows.append(len(X)) or transform(self, X))
        res = run_edmd_cv(table, k=3, seed=0)
        assert rows == [len(table)] * 3
        assert len(res.folds) == 3 and math.isfinite(res.mean_pearson())

    def test_evaluate_on_model(self):
        table = small_cohort(seed=9)
        fold = materialize_fold(table, table.unique_subjects()[:6], seed=9)
        model = NkmModel(tiny_arch(), seed=10)
        m = evaluate(model, fold.test)
        assert set(m.targets) == {"MMSE", "CDRSB", "ADAS13"}
        for t in m.targets:
            assert math.isfinite(m.mae[t]) and math.isfinite(m.rmse[t])
