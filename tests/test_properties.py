"""Property tests (hypothesis): batching, covariance bookkeeping, projection."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nkm import schema
from nkm.model import ABLATION_SETUPS, AblationFlags, ArchConfig, NkmModel
from nkm.training import koopman_covariances

SEEDS = st.integers(0, 2**32 - 1)


def tiny_arch(**kw) -> ArchConfig:
    base = dict(d_z=8, n_heads=2,
                group_hidden={g: (6, 4) for g in schema.GROUP_NAMES},
                n_refine_blocks=2, n_decoder_blocks=2, dropout=0.0)
    base.update(kw)
    return ArchConfig(**base)


@settings(max_examples=25, deadline=None)
@given(B=st.integers(1, 5), window=st.integers(2, 4),
       n_heads=st.sampled_from([1, 2, 4]), setup=st.sampled_from(ABLATION_SETUPS),
       seed=SEEDS)
def test_batched_forward_equals_per_window(B, window, n_heads, setup, seed):
    m = NkmModel(tiny_arch(window=window, n_heads=n_heads), seed=seed % 1000,
                 ablation=AblationFlags.from_name(setup))
    X = np.random.default_rng(seed).standard_normal((B, window, schema.N_FEATURES))
    out = m.forward(X)
    for b in range(B):
        one = m.forward(X[b:b + 1])
        for got, want in [(out.pred.data[b], one.pred.data[0]),
                          (out.control.data[b], one.control.data[0]),
                          (out.z_next.data[b], one.z_next.data[0]),
                          (out.z_last.data[b], one.z_last.data[0]),
                          (out.z.data[b::B], one.z.data),
                          (out.alpha[b], one.alpha[0]),
                          (out.beta[b], one.beta[0]),
                          (out.gate[b], one.gate[0])]:
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(B=st.integers(1, 6), w=st.integers(2, 5), d=st.integers(1, 5), seed=SEEDS)
def test_covariances_sum_over_transition_pairs(B, w, d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((w * B, d))     # row t*B + b: visit t of window b
    c = rng.standard_normal((B, d))
    c_zz, c_nz, c_cz = np.zeros((d, d)), np.zeros((d, d)), np.zeros((d, d))
    pairs = 0
    for b in range(B):
        for t in range(w - 1):
            z_t, z_n = z[t * B + b], z[(t + 1) * B + b]
            c_zz += np.outer(z_t, z_t)
            c_nz += np.outer(z_n, z_t)
            c_cz += np.outer(c[b], z_t)
            pairs += 1
    got = koopman_covariances(z, c)
    for g, want in zip(got, (c_zz / pairs, c_nz / pairs, c_cz / pairs)):
        assert np.allclose(g, want, rtol=0.0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(d=st.integers(1, 12), log_scale=st.floats(-3.0, 3.0),
       rho=st.floats(0.05, 2.0), seed=SEEDS)
def test_projection_keeps_exact_norm_within_rho(d, log_scale, rho, seed):
    m = NkmModel(tiny_arch(d_z=d, n_heads=1), seed=0)
    K = 10.0 ** log_scale * np.random.default_rng(seed).standard_normal((d, d))
    before = np.linalg.svd(K, compute_uv=False)[0]
    m.K.data = K.copy()
    m.project_spectral(rho)
    after = np.linalg.svd(m.K.data, compute_uv=False)[0]
    assert after <= rho * (1.0 + 1e-12)
    if before <= rho:
        assert np.array_equal(m.K.data, K)
    else:
        # a pure rescale onto the sphere of radius rho
        assert np.allclose(m.K.data * (before / rho), K, rtol=1e-12, atol=0.0)
        assert after >= rho * (1.0 - 1e-12)
