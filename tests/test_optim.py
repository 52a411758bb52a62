"""AdamW against a hand-unrolled recurrence, clipping, scheduler, early stop,
and the flat parameter storage every writer must keep."""
from __future__ import annotations

import numpy as np
import pytest

from nkm import schema
from nkm.analysis import verify_descent
from nkm.data import materialize_fold
from nkm.model import ArchConfig, NkmModel, load_checkpoint, save_checkpoint
from nkm.optim import AdamW, OptimConfig, ParamStore, clip_global_norm
from nkm.synthetic import SyntheticConfig, generate_synthetic
from nkm.training import LossConfig, train


class TestParamStore:
    def test_order_and_vector_round_trip(self):
        ps = ParamStore()
        a = ps.add("a", np.arange(6.0).reshape(2, 3))
        b = ps.add("b", np.array([7.0, 8.0]))
        assert ps.names() == ["a", "b"]
        vec = ps.to_vector()
        assert np.array_equal(vec, np.array([0, 1, 2, 3, 4, 5, 7, 8.0]))
        ps.from_vector(vec * 2)
        assert np.array_equal(a.data, np.arange(6.0).reshape(2, 3) * 2)
        assert np.array_equal(b.data, np.array([14.0, 16.0]))

    def test_duplicate_name_rejected(self):
        ps = ParamStore()
        ps.add("w", np.zeros(2))
        with pytest.raises(ValueError):
            ps.add("w", np.zeros(2))

    def test_from_vector_size_check(self):
        ps = ParamStore()
        ps.add("w", np.zeros(3))
        with pytest.raises(ValueError):
            ps.from_vector(np.zeros(4))


class TestAdamW:
    def test_three_steps_match_hand_recurrence(self):
        # independent oracle: unroll the documented update by hand
        lr, b1, b2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.1
        p0 = np.array([1.0, -2.0, 0.5])
        grads = [np.array([0.3, -0.1, 0.7]),
                 np.array([-0.2, 0.4, 0.05]),
                 np.array([0.1, 0.1, -0.3])]

        p = p0.copy()
        m = np.zeros(3)
        v = np.zeros(3)
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            p = p * (1 - lr * wd)
            p = p - lr * mhat / (np.sqrt(vhat) + eps)
        want = p

        ps = ParamStore()
        w = ps.add("w", p0)
        opt = AdamW(ps, OptimConfig(lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd))
        for g in grads:
            w.grad = g.copy()
            opt.step()
        assert np.allclose(w.data, want, atol=0, rtol=0)

    def test_skips_params_without_grad(self):
        ps = ParamStore()
        w = ps.add("w", np.ones(2))
        frozen = ps.add("frozen", np.ones(2))
        opt = AdamW(ps, OptimConfig(lr=0.1, weight_decay=0.0))
        w.grad = np.ones(2)
        opt.step()
        assert np.array_equal(frozen.data, np.ones(2))
        assert not np.array_equal(w.data, np.ones(2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimConfig(lr=0.0)
        with pytest.raises(ValueError):
            OptimConfig(betas=(1.0, 0.999))
        with pytest.raises(ValueError):
            OptimConfig(batch_size=0)

    @pytest.mark.parametrize("field,value", [
        ("clip_norm", -1.0), ("clip_norm", 0.0), ("clip_norm", float("nan")),
        ("eps", 0.0), ("eps", -1e-8), ("weight_decay", -1e-3),
        ("plateau_factor", 0.0), ("plateau_factor", 1.5),
        ("plateau_factor", -0.5), ("plateau_patience", -1),
        ("early_stop_patience", -1), ("lr", float("inf")), ("lr", float("nan")),
        ("weight_decay", float("inf")), ("weight_decay", float("nan")),
        ("eps", float("inf")), ("clip_norm", float("inf")),
        ("plateau_factor", float("nan")), ("plateau_patience", float("nan")),
        ("early_stop_patience", float("nan")), ("epochs", float("inf")),
        ("batch_size", float("nan"))])
    def test_config_refuses_values_that_break_training(self, field, value):
        # a negative clip_norm flips every gradient; zero freezes training;
        # lr=inf passed and training died in epoch 1 on a non-finite L_pred
        with pytest.raises(ValueError, match=field):
            OptimConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("weight_decay", 0.0), ("plateau_factor", 1.0),
        ("plateau_patience", 0), ("early_stop_patience", 0)])
    def test_config_accepts_boundary_values(self, field, value):
        assert getattr(OptimConfig(**{field: value}), field) == value


class TestClip:
    def test_clip_scales_to_max_norm(self):
        ps = ParamStore()
        a = ps.add("a", np.zeros(3))
        b = ps.add("b", np.zeros((2, 2)))
        a.grad = np.array([3.0, 0.0, 0.0])
        b.grad = np.full((2, 2), 2.0)  # total norm sqrt(9 + 16) = 5
        pre = clip_global_norm(ps, 1.0)
        assert np.isclose(pre, 5.0)
        post = np.sqrt(np.sum(a.grad ** 2) + np.sum(b.grad ** 2))
        assert post <= 1.0 + 1e-12
        assert np.isclose(post, 1.0)
        # direction preserved
        assert np.allclose(a.grad, np.array([3.0, 0, 0]) / 5.0)

    def test_clip_noop_below_threshold(self):
        ps = ParamStore()
        a = ps.add("a", np.zeros(2))
        a.grad = np.array([0.3, 0.4])
        pre = clip_global_norm(ps, 1.0)
        assert np.isclose(pre, 0.5)
        assert np.allclose(a.grad, np.array([0.3, 0.4]))


def tiny_model(seed: int = 0) -> NkmModel:
    return NkmModel(ArchConfig(d_z=8, n_heads=2,
                               group_hidden={g: (6, 4) for g in schema.GROUP_NAMES},
                               n_refine_blocks=2, n_decoder_blocks=2,
                               dropout=0.1), seed=seed)


def tiny_fold(seed: int = 0):
    cfg = SyntheticConfig(n_subjects=16, visits_per_subject=5, latent_dim=3)
    table, _ = generate_synthetic(cfg, seed=seed)
    return materialize_fold(table, table.unique_subjects()[:4], seed=seed)


def assert_views(ps: ParamStore) -> None:
    """Every parameter's value is its own slice of the store's value vector."""
    values, _ = ps.flat()
    off = 0
    for t in ps.tensors():
        assert np.shares_memory(t.data, values)
        assert t.data.ctypes.data == values[off:].ctypes.data
        off += t.data.size
    assert off == values.size


class TestFlatStorage:
    """Parameters are views of one value vector; every writer writes in place."""

    @pytest.mark.parametrize("mode", ["joint", "alternating"])
    def test_train_keeps_views(self, mode):
        fold = tiny_fold()
        model = tiny_model()
        model.params.flat()
        train(model, fold.train, fold.val,
              OptimConfig(lr=3e-3, epochs=2, batch_size=32), LossConfig(),
              mode=mode, seed=0)
        assert_views(model.params)

    def test_first_gradients_land_in_the_gradient_vector(self):
        fold = tiny_fold()
        model = tiny_model()
        _, grads = model.params.flat()
        train(model, fold.train, fold.val,
              OptimConfig(lr=3e-3, epochs=1, batch_size=32), LossConfig(),
              seed=0)
        for t in model.params.tensors():
            assert t.grad is not None and np.shares_memory(t.grad, grads)

    def test_verify_descent_keeps_views(self):
        fold = tiny_fold(1)
        model = tiny_model(1)
        model.params.flat()
        verify_descent(model, fold.train, LossConfig(), iters=2)
        assert_views(model.params)

    def test_load_checkpoint_gives_views(self, tmp_path):
        stem = str(tmp_path / "m")
        model = tiny_model(2)
        save_checkpoint(model, stem)
        back, _ = load_checkpoint(stem)
        assert_views(back.params)
        assert np.array_equal(back.params.to_vector(), model.params.to_vector())

    def test_vector_and_value_loaders_write_in_place(self):
        model = tiny_model(3)
        ps = model.params
        vec = ps.to_vector()
        ps.from_vector(vec * 2.0)
        assert_views(ps)
        assert np.array_equal(ps.to_vector(), vec * 2.0)
        snapshot = ps.copy_values()
        ps.from_vector(vec)
        ps.load_values(snapshot)
        assert_views(ps)
        assert np.array_equal(ps.to_vector(), vec * 2.0)

    def test_copy_values_is_detached_from_the_store(self):
        model = tiny_model(4)
        snapshot = model.params.copy_values()
        before = model.params.to_vector()
        for v in snapshot.values():
            v += 1.0
        assert np.array_equal(model.params.to_vector(), before)

    def test_project_spectral_writes_in_place(self):
        model = tiny_model(5)
        model.params.flat()
        model.K.data[...] = 3.0 * np.eye(model.arch.d_z)
        model.project_spectral(0.95)
        assert_views(model.params)
        assert np.linalg.svd(model.params["koopman.K"].data,
                             compute_uv=False)[0] <= 0.95 + 1e-12

    def test_rebound_data_is_taken_back_by_adamw(self):
        values = {"w": np.ones(3), "b": np.zeros(2)}
        stores = []
        for rebind in (False, True):
            ps = ParamStore()
            w = ps.add("w", values["w"])
            b = ps.add("b", values["b"])
            opt = AdamW(ps, OptimConfig(lr=0.1))
            if rebind:
                w.data = np.full(3, 0.5)
            else:
                w.data[...] = 0.5
            w.grad, b.grad = np.ones(3), np.ones(2)
            opt.step()
            stores.append(ps)
        assert_views(stores[1])
        assert stores[1].to_vector().tobytes() == stores[0].to_vector().tobytes()

    def test_rebound_data_survives_a_checkpoint(self, tmp_path):
        model = tiny_model(6)
        save_checkpoint(model, str(tmp_path / "a"))
        back, _ = load_checkpoint(str(tmp_path / "a"))
        back.K.data = 0.5 * np.eye(back.arch.d_z)
        save_checkpoint(back, str(tmp_path / "b"))
        again, _ = load_checkpoint(str(tmp_path / "b"))
        assert np.array_equal(again.K.data, 0.5 * np.eye(back.arch.d_z))
        assert_views(back.params)

    def test_rebinding_to_another_shape_is_refused(self):
        ps = ParamStore()
        w = ps.add("w", np.ones(3))
        ps.flat()
        w.data = np.ones(4)
        with pytest.raises(ValueError, match="'w'"):
            ps.to_vector()

    def test_add_after_packing_repacks(self):
        ps = ParamStore()
        a = ps.add("a", np.arange(3.0))
        ps.flat()
        a.data[0] = 7.0
        ps.add("b", np.array([5.0]))
        assert_views(ps)
        assert np.array_equal(ps.to_vector(), [7.0, 1.0, 2.0, 5.0])
