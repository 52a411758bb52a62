"""Forward-pass stage oracles, attention invariants, init/projection, checkpoints."""
from __future__ import annotations

import json

import numpy as np
import pytest

from nkm import schema
from nkm.data import Windows
from nkm import model as nkm_model
from nkm.model import (ABLATION_SETUPS, AblationFlags, ArchConfig, NkmModel,
                       full_arch, init_koopman, load_checkpoint, save_checkpoint,
                       window_rows)
from nkm.tensor import Tensor
from nkm.training import evaluate


FULL_ARCH_RTOL = 1e-12   # BLAS rounding of the 360-wide layers


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def np_silu(x):
    return x * np_sigmoid(x)


def np_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


def tiny_arch(**kw) -> ArchConfig:
    base = dict(d_z=8, n_heads=2,
                group_hidden={g: (6, 4) for g in schema.GROUP_NAMES},
                n_refine_blocks=2, n_decoder_blocks=2, dropout=0.0)
    base.update(kw)
    return ArchConfig(**base)


def rand_windows(n=4, w=3, seed=0):
    return np.random.default_rng(seed).standard_normal((n, w, schema.N_FEATURES))


class TestEncoder:
    def test_stagewise_recompute(self):
        # independent numpy replay of group MLP -> fusion -> refine
        m = NkmModel(tiny_arch(), seed=3)
        x = np.random.default_rng(1).standard_normal((5, schema.N_FEATURES))
        fused, embeds = m.encode_rows(x)
        sl = schema.group_slices(list(m.arch.groups))
        got_embeds = {}
        for g in m.arch.groups:
            h = x[:, sl[g]]
            for i in range(len(m.arch.group_hidden[g])):
                W = m.params[f"enc.{g}.{i}.W"].data
                b = m.params[f"enc.{g}.{i}.b"].data
                ga = m.params[f"enc.{g}.{i}.gamma"].data
                be = m.params[f"enc.{g}.{i}.beta"].data
                h = np_silu(np_layer_norm(h @ W + b, ga, be))
            got_embeds[g] = h
            assert np.allclose(embeds[g].data, h, atol=1e-12)
        cat = np.concatenate([got_embeds[g] for g in m.arch.groups], axis=1)
        want_fused = np_silu(cat @ m.params["fuse.W"].data + m.params["fuse.b"].data)
        assert np.allclose(fused.data, want_fused, atol=1e-12)

        z = want_fused
        for i in range(m.arch.n_refine_blocks):
            W = m.params[f"refine.{i}.W"].data
            b = m.params[f"refine.{i}.b"].data
            ga = m.params[f"refine.{i}.gamma"].data
            be = m.params[f"refine.{i}.beta"].data
            z = z + np_silu(np_layer_norm(z @ W + b, ga, be))
        assert np.allclose(m.refine(fused).data, z, atol=1e-12)

    def test_zero_input_zero_biases_gives_zero_latent(self):
        m = NkmModel(tiny_arch(), seed=0)
        fused, embeds = m.encode_rows(np.zeros((3, schema.N_FEATURES)))
        assert np.array_equal(fused.data, np.zeros((3, m.arch.d_z)))
        for e in embeds.values():
            assert np.array_equal(e.data, np.zeros_like(e.data))

    def test_zero_refine_blocks_identity(self):
        m = NkmModel(tiny_arch(), seed=0)
        for i in range(m.arch.n_refine_blocks):
            m.params[f"refine.{i}.W"].data[:] = 0.0
            m.params[f"refine.{i}.b"].data[:] = 0.0
        z = Tensor(np.random.default_rng(2).standard_normal((4, m.arch.d_z)))
        assert np.array_equal(m.refine(z).data, z.data)

    def test_rejects_nan_input(self):
        m = NkmModel(tiny_arch())
        x = np.zeros((2, schema.N_FEATURES))
        x[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            m.encode_rows(x)

    def test_no_demo_variant(self):
        arch = tiny_arch(groups=tuple(g for g in schema.GROUP_NAMES if g != "demo"))
        m = NkmModel(arch, seed=0)
        widths = schema.group_slices(list(arch.groups)).values()
        assert sum(s.stop - s.start for s in widths) == 25
        out = m.forward(rand_windows())
        assert out.pred.data.shape == (4, 3)

    def test_group_set_validated(self):
        with pytest.raises(ValueError, match="groups"):
            tiny_arch(groups=("csf", "pet"))

    @pytest.mark.parametrize("key,value", [
        ("d_z", 8.0), ("d_z", True), ("d_z", "8"), ("n_heads", 2.0),
        ("n_heads", None), ("n_refine_blocks", 2.5),
        ("n_decoder_blocks", [2]), ("window", 3.0), ("window", False),
        ("dropout", "x"), ("dropout", True), ("dropout", None)])
    def test_counts_and_dropout_validated(self, key, value):
        # n_heads=2.0 and d_z=8.0 passed the range checks and died with a
        # numpy TypeError in the first layer; "x" on the first comparison
        with pytest.raises(ValueError, match=f"^{key} must be"):
            tiny_arch(**{key: value})


class TestAttention:
    def test_alpha_rows_sum_to_one(self):
        m = NkmModel(tiny_arch(), seed=1)
        out = m.forward(rand_windows(n=6, seed=4))
        assert out.alpha.shape == (6, m.arch.n_heads, m.arch.window)
        assert np.allclose(out.alpha.sum(axis=2), 1.0, atol=1e-6)

    def test_beta_rows_sum_to_one(self):
        m = NkmModel(tiny_arch(), seed=1)
        out = m.forward(rand_windows(n=6, seed=4))
        assert out.beta.shape == (6, len(m.arch.groups))
        assert np.allclose(out.beta.sum(axis=1), 1.0, atol=1e-6)

    def test_identical_visits_give_uniform_alpha(self):
        m = NkmModel(tiny_arch(), seed=2)
        row = np.random.default_rng(5).standard_normal(schema.N_FEATURES)
        X = np.tile(row, (3, m.arch.window, 1))
        out = m.forward(X)
        assert np.allclose(out.alpha, 1.0 / m.arch.window, atol=1e-9)

    def test_zero_feature_keys_give_uniform_beta(self):
        m = NkmModel(tiny_arch(), seed=2)
        for g in m.arch.groups:
            m.params[f"attn_f.key.{g}.W"].data[:] = 0.0
        out = m.forward(rand_windows(n=3, seed=6))
        assert np.allclose(out.beta, 1.0 / len(m.arch.groups), atol=1e-12)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_temporal_context_matches_per_head_reference(self, n_heads):
        m = NkmModel(tiny_arch(n_heads=n_heads), seed=3)
        names = [n for n in m.params.names() if n.startswith("attn_t.")]
        assert names == ["attn_t.q.W", "attn_t.k.W", "attn_t.v.W", "attn_t.out.W"]
        w, B, d = m.arch.window, 4, m.arch.d_k
        zs = np.random.default_rng(7).standard_normal((w, B, m.arch.d_z))
        c_time, alpha = m.temporal_context(Tensor(zs.reshape(w * B, -1)),
                                           Tensor(zs[-1]), np.arange(w * B))

        Wq, Wk, Wv = (m.params[f"attn_t.{n}.W"].data for n in "qkv")
        heads, want_alpha = [], np.zeros((B, n_heads, w))
        for h in range(n_heads):
            cols = slice(h * d, (h + 1) * d)
            q = zs[-1] @ Wq[:, cols]
            s = np.stack([np.sum(q * (z @ Wk[:, cols]), axis=1) for z in zs],
                         axis=1) / np.sqrt(d)                    # (B, w)
            a = np.exp(s - s.max(axis=1, keepdims=True))
            a /= a.sum(axis=1, keepdims=True)
            want_alpha[:, h, :] = a
            heads.append(sum(a[:, [t]] * (zs[t] @ Wv[:, cols]) for t in range(w)))
        want = np.concatenate(heads, axis=1) @ m.params["attn_t.out.W"].data
        assert np.allclose(alpha, want_alpha, rtol=0.0, atol=1e-12)
        assert np.allclose(c_time.data, want, rtol=0.0, atol=1e-12)

    def test_feature_context_matches_reference(self):
        m = NkmModel(tiny_arch(), seed=4)
        z, embeds = m.encode_rows(rand_windows(n=5, seed=2)[:, -1, :])
        c_feat, beta = m.feature_context(z, embeds)
        P = {k: t.data for k, t in m.params.items()}
        q = z.data @ P["attn_f.q.W"]
        s = np.stack([np.sum(q * (embeds[g].data @ P[f"attn_f.key.{g}.W"]), axis=1)
                      for g in m.arch.groups], axis=1) / np.sqrt(m.arch.d_k)
        want_beta = np.exp(s - s.max(axis=1, keepdims=True))
        want_beta /= want_beta.sum(axis=1, keepdims=True)
        want = sum(want_beta[:, [i]] * (embeds[g].data @ P[f"attn_f.val.{g}.W"])
                   for i, g in enumerate(m.arch.groups))
        assert np.allclose(beta, want_beta, rtol=0.0, atol=1e-12)
        assert np.allclose(c_feat.data, want, rtol=0.0, atol=1e-12)

    def test_gate_strictly_inside_unit_interval(self):
        m = NkmModel(tiny_arch(), seed=4)
        out = m.forward(rand_windows(n=8, seed=8))
        assert np.all(out.gate > 0.0) and np.all(out.gate < 1.0)

    def test_control_mixes_contexts_via_gate(self):
        m = NkmModel(tiny_arch(), seed=5)
        X = rand_windows(n=3, seed=9)
        # visit-major rows: row t*B + b is visit t of window b
        rows = X.transpose(1, 0, 2).reshape(-1, schema.N_FEATURES)
        z_enc, embeds = m.encode_rows(rows)
        z = m.refine(z_enc)
        z_last = Tensor(z.data[-3:])
        embeds_last = {g: Tensor(e.data[-3:]) for g, e in embeds.items()}
        order = np.arange(m.arch.window * 3)
        c, alpha, beta, gate = m.control(z, z_last, embeds_last, order)
        c_time, _ = m.temporal_context(z, z_last, order)
        c_feat, _ = m.feature_context(z_last, embeds_last)
        want = gate * c_feat.data + (1.0 - gate) * c_time.data
        assert np.allclose(c.data, want, atol=1e-12)


class TestAblations:
    def test_no_control_zeroes_control(self):
        m = NkmModel(tiny_arch(), seed=1, ablation=AblationFlags(no_control=True))
        X = rand_windows(n=4, seed=1)
        out = m.forward(X)
        assert np.array_equal(out.control.data, np.zeros_like(out.control.data))
        # prediction reduces to decode(K z_last)
        plain = NkmModel(tiny_arch(), seed=1)
        z_last = plain.forward(X).z_last
        want = plain.decode(plain.koopman_step(z_last, Tensor(np.zeros_like(z_last.data))))
        assert np.allclose(out.pred.data, want.data, atol=1e-12)

    def test_no_temporal_attention_uses_uniform_mean(self):
        m = NkmModel(tiny_arch(), seed=1,
                     ablation=AblationFlags(no_temporal_attention=True))
        X = rand_windows(n=4, seed=2)
        out = m.forward(X)
        zs = out.z.data.reshape(m.arch.window, 4, m.arch.d_z)
        c_time, alpha = m.temporal_context(out.z, out.z_last,
                                           np.arange(m.arch.window * 4))
        assert np.allclose(c_time.data, zs.mean(axis=0), atol=1e-12)
        assert np.allclose(alpha, 1.0 / m.arch.window)

    def test_no_feature_attention_uses_uniform_mean(self):
        m = NkmModel(tiny_arch(), seed=1,
                     ablation=AblationFlags(no_feature_attention=True))
        X = rand_windows(n=4, seed=3)
        z, embeds = m.encode_rows(X[:, -1, :])
        z_ref = m.refine(z)
        c_feat, beta = m.feature_context(z_ref, embeds)
        vals = np.stack([(embeds[g].data @ m.params[f"attn_f.val.{g}.W"].data)
                         for g in m.arch.groups])
        assert np.allclose(c_feat.data, vals.mean(axis=0), atol=1e-12)
        assert np.allclose(beta, 1.0 / len(m.arch.groups))

    def test_at_most_one_flag(self):
        with pytest.raises(ValueError):
            AblationFlags(no_control=True, no_spectral_reg=True)

    def test_setup_names(self):
        assert ABLATION_SETUPS[0] == "full"
        for name in ABLATION_SETUPS:
            AblationFlags.from_name(name)
        with pytest.raises(ValueError):
            AblationFlags.from_name("nope")


class TestKoopman:
    def test_step_is_affine(self):
        m = NkmModel(tiny_arch(), seed=0)
        z = np.random.default_rng(0).standard_normal((5, m.arch.d_z))
        c = np.random.default_rng(1).standard_normal((5, m.arch.d_z))
        out = m.koopman_step(Tensor(z), Tensor(c))
        assert np.allclose(out.data, z @ m.K.data.T + c, atol=1e-12)

    def test_init_sigma_zero_is_scaled_identity(self):
        K = init_koopman(6, 0.0, 0.99, np.random.default_rng(0))
        assert np.array_equal(K, 0.99 * np.eye(6))

    def test_init_clipped_and_near_identity(self):
        for seed in (0, 1, 2):
            K = init_koopman(12, 1e-2, 0.99, np.random.default_rng(seed))
            s = np.linalg.svd(K, compute_uv=False)[0]
            assert s <= 0.99 + 1e-12
            assert np.linalg.norm(K - np.eye(12)) < 0.2

    @pytest.mark.parametrize("key,value", [
        ("rho_init", -1.0), ("rho_init", 0.0), ("rho_init", float("nan")),
        ("rho_init", float("inf")), ("rho_init", "0.9"),
        ("sigma_init", -1e-3), ("sigma_init", float("nan")),
        ("sigma_init", float("inf")), ("sigma_init", "nan")])
    def test_init_values_validated(self, key, value):
        # rho_init = -1 built K = -U V^T with ||K||_2 = 1; 0 gave a non-finite
        # R_spec in epoch 0; the string "nan" raised a numpy type error
        with pytest.raises(ValueError, match=key):
            tiny_arch(**{key: value})

    def test_project_spectral(self):
        m = NkmModel(tiny_arch(), seed=0)
        m.K.data = 3.0 * np.random.default_rng(2).standard_normal((8, 8))
        m.project_spectral(0.95)
        assert np.linalg.svd(m.K.data, compute_uv=False)[0] <= 0.95 + 1e-8


class TestDecoder:
    def test_zero_weights_output_head_bias(self):
        m = NkmModel(tiny_arch(), seed=0)
        for i in range(m.arch.n_decoder_blocks):
            m.params[f"dec.{i}.W"].data[:] = 0.0
            m.params[f"dec.{i}.b"].data[:] = 0.0
        m.params["dec.head.W"].data[:] = 0.0
        m.params["dec.head.b"].data[:] = np.array([1.0, -2.0, 0.5])
        z = Tensor(np.random.default_rng(1).standard_normal((4, m.arch.d_z)))
        out = m.decode(z)
        assert np.array_equal(out.data, np.tile([1.0, -2.0, 0.5], (4, 1)))


class TestForward:
    def test_shapes_and_eval_determinism(self):
        m = NkmModel(tiny_arch(), seed=0)
        X = rand_windows(n=7)
        a = m.predict(X)
        b = m.predict(X)
        assert a.shape == (7, 3)
        assert np.array_equal(a, b)

    def test_seeded_construction_reproducible(self):
        a = NkmModel(tiny_arch(), seed=11)
        b = NkmModel(tiny_arch(), seed=11)
        c = NkmModel(tiny_arch(), seed=12)
        assert np.array_equal(a.params.to_vector(), b.params.to_vector())
        assert not np.array_equal(a.params.to_vector(), c.params.to_vector())

    def test_shape_validation(self):
        m = NkmModel(tiny_arch())
        with pytest.raises(ValueError, match="windows"):
            m.forward(np.zeros((2, 2, schema.N_FEATURES)))
        with pytest.raises(ValueError, match="windows"):
            m.forward(np.zeros((2, 3, 7)))

    def test_predict_refuses_bad_windows(self):
        m = NkmModel(tiny_arch())
        for shape in ((2, 2, schema.N_FEATURES), (2, 3, 7), (3, schema.N_FEATURES)):
            with pytest.raises(ValueError, match="windows"):
                m.predict(np.zeros(shape))
        X = rand_windows(n=2)
        X[1, 2, 5] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            m.predict(X)

    def test_no_windows_predict_empty_and_evaluate_refuses(self):
        m = NkmModel(tiny_arch())
        got = m.predict(np.zeros((0, m.arch.window, schema.N_FEATURES)))
        assert got.shape == (0, schema.N_TARGETS) and got.dtype == np.float64
        none = Windows(np.zeros((0, m.arch.window, schema.N_FEATURES)),
                       np.zeros((0, schema.N_TARGETS)), [], np.zeros(0, int))
        with pytest.raises(ValueError, match="no windows"):
            evaluate(m, none)

    def test_dropout_needs_rng_and_perturbs(self):
        m = NkmModel(tiny_arch(dropout=0.5), seed=0)
        X = rand_windows(n=3)
        with pytest.raises(ValueError, match="rng"):
            m.forward(X, train=True)
        o1 = m.forward(X, train=True, rng=np.random.default_rng(0)).pred.data
        o2 = m.forward(X, train=True, rng=np.random.default_rng(1)).pred.data
        o3 = m.forward(X, train=True, rng=np.random.default_rng(0)).pred.data
        assert not np.array_equal(o1, o2)
        assert np.array_equal(o1, o3)
        # eval path ignores dropout
        assert np.array_equal(m.predict(X), m.predict(X))

    def test_latents_are_visit_major(self):
        m = NkmModel(tiny_arch(), seed=6)
        X = rand_windows(n=5, seed=10)
        out = m.forward(X)
        assert out.z.data.shape == (m.arch.window * 5, m.arch.d_z)
        for t in range(m.arch.window):
            want = m.refine(m.encode_rows(X[:, t, :])[0]).data
            assert np.allclose(out.z.data[t * 5:(t + 1) * 5], want,
                               rtol=0.0, atol=1e-12)
        assert np.array_equal(out.z_last.data, out.z.data[-5:])

    def test_encodes_once_per_batch(self, monkeypatch):
        m = NkmModel(tiny_arch(), seed=0)
        calls = []
        encode = m.encode_rows

        def counting(x, *args, **kwargs):
            calls.append(x.shape)
            return encode(x, *args, **kwargs)

        monkeypatch.setattr(m, "encode_rows", counting)
        m.forward(rand_windows(n=6))
        assert calls == [(m.arch.window * 6, schema.N_FEATURES)]

    def test_predict_builds_no_tape(self, monkeypatch):
        m = NkmModel(tiny_arch(), seed=0)
        X = rand_windows(n=4)
        want = m.forward(X).pred.data
        outs = []
        decode = m.decode

        def recording(*args, **kwargs):
            outs.append(decode(*args, **kwargs))
            return outs[-1]

        monkeypatch.setattr(m, "decode", recording)
        m.params.zero_grad()
        got = m.predict(X)
        assert np.array_equal(got, want)
        (out,) = outs
        assert not out.requires_grad and out._parents == ()
        assert all(t.grad is None for _, t in m.params.items())
        # recording is back on after predict
        monkeypatch.undo()
        assert m.forward(X).pred.requires_grad

    def test_predict_encodes_each_distinct_visit_once(self, monkeypatch):
        m = NkmModel(ArchConfig(), seed=2)
        visits = rand_windows(n=7, w=1, seed=9)[:, 0]
        sliding = np.stack([visits[b:b + 3] for b in range(5)])
        X = np.concatenate([sliding, sliding[::-1], visits[[[6, 6, 6]]]])
        encoded = []
        encode = m.encode_rows
        monkeypatch.setattr(m, "encode_rows", lambda x, *a, **kw:
                            encoded.append(len(x)) or encode(x, *a, **kw))
        got = m.predict(X)
        assert encoded == [7]
        assert np.array_equal(got, m.forward(X).pred.data)

    def test_predict_matches_forward_at_full_arch(self):
        # 200 sliding windows over 40 seven-visit sequences: 600 visit rows,
        # 280 distinct. BLAS may round the two row counts differently.
        m = NkmModel(full_arch(), seed=5)
        visits = rand_windows(n=40 * 7, w=1, seed=11)[:, 0].reshape(40, 7, -1)
        X = np.concatenate([[seq[b:b + 3] for b in range(5)] for seq in visits])
        want = m.forward(X).pred.data
        got = m.predict(X)
        assert np.max(np.abs(got - want)) <= FULL_ARCH_RTOL * np.max(np.abs(want))

    def test_latents_match_forward_on_shared_visits(self, monkeypatch):
        m = NkmModel(tiny_arch(), seed=7)
        visits = rand_windows(n=6, w=1, seed=3)[:, 0]
        rows = np.array([[0, 1, 2], [1, 2, 3], [2, 3, 4], [4, 0, 5]])
        encoded = []
        encode = m.encode_rows
        monkeypatch.setattr(m, "encode_rows", lambda x, *a, **kw:
                            encoded.append(len(x)) or encode(x, *a, **kw))
        z, z_last, c = m.latents(visits, rows)
        assert encoded == [6]
        want = m.forward(visits[rows])
        assert np.array_equal(z, want.z.data)
        assert np.array_equal(z_last, want.z_last.data)
        assert np.array_equal(c, want.control.data)

    def test_latents_reject_rows_of_another_width(self):
        m = NkmModel(tiny_arch())
        with pytest.raises(ValueError, match="window rows"):
            m.latents(rand_windows(n=4, w=1)[:, 0], np.array([[0, 1], [1, 2]]))

    def test_full_arch_builds(self):
        arch = full_arch()
        assert arch.d_z == 360 and arch.n_heads == 8
        assert arch.group_hidden["mri"] == (180, 120)
        m = NkmModel(arch, seed=0)
        assert m.params["koopman.K"].data.shape == (360, 360)


def exact_window_rows(X):
    """One `np.unique` over the rows' bytes: distinct rows in byte order."""
    flat = np.ascontiguousarray(X).reshape(-1, X.shape[2])
    keys = flat.view(np.dtype((np.void, flat.itemsize * X.shape[2]))).ravel()
    distinct, inverse = np.unique(keys, return_inverse=True)
    return (distinct.view(np.float64).reshape(-1, X.shape[2]),
            inverse.reshape(X.shape[:2]))


def sliding_windows(n_visits=12, w=3, seed=0):
    """Overlapping windows over one run of visits, with a -0.0 visit, a
    +0.0 twin of it and a NaN visit among them."""
    V = rand_windows(n=n_visits, w=1, seed=seed)[:, 0]
    V[3] = -0.0
    V[7] = 0.0
    V[9, 5] = np.nan
    return np.stack([V[i:i + w] for i in range(n_visits - w + 1)])


class TestWindowRows:
    def assert_same(self, got, want):
        assert got[0].tobytes() == want[0].tobytes()
        assert got[0].shape == want[0].shape
        assert np.array_equal(got[1], want[1])

    def test_matches_one_unique_over_bytes(self):
        X = sliding_windows()
        visits, rows = window_rows(X)
        self.assert_same((visits, rows), exact_window_rows(X))
        assert len(visits) == 12
        assert np.array_equal(visits[rows], X, equal_nan=True)

    def test_hash_collision_takes_exact_path(self, monkeypatch):
        X = sliding_windows(seed=4)
        monkeypatch.setattr(nkm_model, "_row_hashes",
                            lambda bits: np.zeros(len(bits), dtype=np.uint64))
        self.assert_same(window_rows(X), exact_window_rows(X))

    def test_signed_zero_rows_stay_distinct(self):
        X = np.zeros((2, 2, schema.N_FEATURES))
        X[1] = -0.0
        visits, rows = window_rows(X)
        assert len(visits) == 2
        assert rows[0, 0] == rows[0, 1] != rows[1, 0] == rows[1, 1]
        assert np.signbit(visits[rows[1, 0]]).all()
        assert not np.signbit(visits[rows[0, 0]]).any()


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        m = NkmModel(tiny_arch(), seed=9)
        m.params["fuse.b"].data[:] = np.pi  # non-default values
        hist = [{"epoch": 0, "L_pred": 1.0, "L_koop": 0.5, "R_spec": 0.0,
                 "val_loss": 1.2, "lr": 4e-4}]
        stem = str(tmp_path / "ckpt")
        save_checkpoint(m, stem, history=hist)
        back, manifest = load_checkpoint(stem)
        assert np.array_equal(back.params.to_vector(), m.params.to_vector())
        assert manifest["history"] == hist
        X = rand_windows(n=3, seed=5)
        assert np.array_equal(back.predict(X), m.predict(X))

    def test_size_mismatch_rejected(self, tmp_path):
        m = NkmModel(tiny_arch(), seed=0)
        stem = str(tmp_path / "ckpt")
        _, bin_path = save_checkpoint(m, stem)
        data = open(bin_path, "rb").read()
        open(bin_path, "wb").write(data[:-8])
        with pytest.raises(ValueError, match="binary"):
            load_checkpoint(stem)

    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "nope"))

    def test_unknown_format_version_rejected(self, tmp_path):
        stem = str(tmp_path / "ckpt")
        json_path, _ = save_checkpoint(NkmModel(tiny_arch(), seed=0), stem)
        manifest = json.loads(open(json_path).read())
        manifest["format_version"] = 99
        open(json_path, "w").write(json.dumps(manifest))
        with pytest.raises(ValueError, match="format_version 99 .* format_version 3"):
            load_checkpoint(stem)

    def test_flipped_byte_rejected(self, tmp_path):
        # same size, one value changed: only the digest can tell
        stem = str(tmp_path / "ckpt")
        _, bin_path = save_checkpoint(NkmModel(tiny_arch(), seed=0), stem)
        raw = bytearray(open(bin_path, "rb").read())
        raw[len(raw) // 2] ^= 0x01
        open(bin_path, "wb").write(bytes(raw))
        with pytest.raises(ValueError, match="sha256"):
            load_checkpoint(stem)

    def test_version_two_manifest_rejected(self, tmp_path):
        # version 2 manifests carry no digest of the .bin
        stem = str(tmp_path / "ckpt")
        json_path, _ = save_checkpoint(NkmModel(tiny_arch(), seed=0), stem)
        manifest = json.loads(open(json_path).read())
        manifest.pop("bin_sha256", None)
        manifest["format_version"] = 2
        open(json_path, "w").write(json.dumps(manifest))
        with pytest.raises(ValueError, match="format_version 2 .* format_version 3"):
            load_checkpoint(stem)

    @pytest.mark.parametrize("corrupt", [
        lambda m: m["ablation"].update(no_control="yes"),
        lambda m: m["arch"].update(extra=1),
        lambda m: m["arch"].pop("groups"),
        lambda m: m.pop("seed"),
        lambda m: m.pop("n_values"),
        lambda m: m["arch"].update(group_hidden=[[12, 8]]),
        lambda m: m["arch"]["group_hidden"].update(mri=[24.5, 12]),
        lambda m: m.update(seed="0"),
        lambda m: m.update(ablation=["no_control"])],
        ids=["flag-string", "extra-arch-key", "no-groups", "no-seed",
             "no-n-values", "hidden-list", "hidden-float", "seed-string",
             "ablation-list"])
    def test_unreadable_manifest_refused_with_value_error(self, tmp_path,
                                                          corrupt):
        # these raised TypeError, KeyError or AttributeError, which the
        # command line does not catch, so `nkm eval` ended in a traceback
        stem = str(tmp_path / "ckpt")
        json_path, _ = save_checkpoint(NkmModel(tiny_arch(), seed=0), stem)
        manifest = json.loads(open(json_path).read())
        corrupt(manifest)
        open(json_path, "w").write(json.dumps(manifest))
        with pytest.raises(ValueError):
            load_checkpoint(stem)

    def test_manifest_that_is_not_an_object_refused(self, tmp_path):
        stem = str(tmp_path / "ckpt")
        json_path, _ = save_checkpoint(NkmModel(tiny_arch(), seed=0), stem)
        manifest = json.loads(open(json_path).read())
        open(json_path, "w").write(json.dumps([manifest]))
        with pytest.raises(ValueError, match="not a JSON object"):
            load_checkpoint(stem)

    def test_version_one_checkpoint_rejected(self, tmp_path):
        # version 1 stored one (d_z, d_k) matrix per head and projection
        m = NkmModel(tiny_arch(), seed=0)
        stem = str(tmp_path / "ckpt")
        json_path, _ = save_checkpoint(m, stem)
        manifest = json.loads(open(json_path).read())
        per_head = [f"attn_t.{p}{h}.W" for h in range(m.arch.n_heads)
                    for p in "qkv"]
        names = [n for n in manifest["param_names"]
                 if n not in ("attn_t.q.W", "attn_t.k.W", "attn_t.v.W")]
        at = names.index("attn_t.out.W")
        manifest["param_names"] = names[:at] + per_head + names[at:]
        manifest["format_version"] = 1
        open(json_path, "w").write(json.dumps(manifest))
        with pytest.raises(ValueError, match="format_version 1 "):
            load_checkpoint(stem)
