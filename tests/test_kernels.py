"""Byte-level checks of the sigmoid, silu and layer_norm kernels.

The references below are the kernels these replaced: the two-branch
boolean-mask sigmoid and the layer norm built on numpy's `mean` and `var`,
with their backward passes. The kernels take the same IEEE operations per
element, so values and every input gradient must match them byte for byte,
not to a tolerance.
"""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nkm.model
from nkm import tensor as T
from nkm.data import materialize_fold
from nkm.model import ArchConfig, NkmModel, full_arch
from nkm.optim import OptimConfig
from nkm.synthetic import SyntheticConfig, generate_synthetic
from nkm.training import LossConfig, train


def ref_stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_sigmoid(a) -> T.Tensor:
    a = T.as_tensor(a)
    s = ref_stable_sigmoid(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * s * (1.0 - s))

    return T._make(s, (a,), backward)


def ref_silu(a) -> T.Tensor:
    a = T.as_tensor(a)
    s = ref_stable_sigmoid(a.data)
    out_data = a.data * s

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * s * (1.0 + a.data * (1.0 - s)))

    return T._make(out_data, (a,), backward)


def ref_layer_norm(x, gamma, beta, eps: float = 1e-5) -> T.Tensor:
    x, gamma, beta = T.as_tensor(x), T.as_tensor(gamma), T.as_tensor(beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = gamma.data * xhat + beta.data

    def backward(g):
        if beta.requires_grad:
            beta._accumulate(T._unbroadcast(g, beta.data.shape))
        if gamma.requires_grad:
            gamma._accumulate(T._unbroadcast(g * xhat, gamma.data.shape))
        if x.requires_grad:
            dxhat = g * gamma.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(inv * (dxhat - m1 - xhat * m2))

    return T._make(out_data, (x, gamma, beta), backward)


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0,
           5e-324, -5e-324, 1e-310, -1e-310]
ANY_FLOAT = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))


@st.composite
def kernel_inputs(draw):
    """(x, g, gamma, beta): 1-64 rows by 1-40 columns of values at one of
    several scales, sprinkled with specials, arbitrary floats (NaN of either
    sign included) and constant rows; g, gamma and beta are finite."""
    rows, cols = draw(st.integers(1, 64)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-300, 1e-3, 1.0, 30.0, 800.0]))
    x = rng.standard_normal((rows, cols)) * scale
    special = rng.random((rows, cols)) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    x[special] = rng.choice(SPECIAL, int(special.sum()))
    for _ in range(draw(st.integers(0, 4))):
        x[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = draw(ANY_FLOAT)
    for _ in range(draw(st.integers(0, 2))):
        x[draw(st.integers(0, rows - 1))] = draw(ANY_FLOAT)   # a constant row
    return (x, rng.standard_normal((rows, cols)), rng.standard_normal(cols),
            rng.standard_normal(cols))


def run_op(op, x: np.ndarray, g: np.ndarray, *params: np.ndarray) -> list[bytes]:
    """Bytes of op's value and of the gradient of sum(op * g) for x and every
    parameter array."""
    ins = [T.Tensor(a.copy(), requires_grad=True) for a in (x, *params)]
    with np.errstate(all="ignore"):
        out = op(*ins)
        T.tsum(T.mul(out, T.Tensor(g))).backward()
    return [out.data.tobytes()] + [t.grad.tobytes() for t in ins]


@settings(max_examples=300, deadline=None)
@given(inputs=kernel_inputs())
def test_stable_sigmoid_matches_two_branch_reference(inputs):
    x = inputs[0]
    with np.errstate(all="ignore"):
        assert T._stable_sigmoid(x).tobytes() == ref_stable_sigmoid(x).tobytes()


@pytest.mark.parametrize("x", [np.array(-3.0), np.array(0.5),
                               np.array([-800.0, -1.0, 0.0, 2.0, np.nan])])
def test_stable_sigmoid_on_scalars_and_vectors(x):
    got = T._stable_sigmoid(x)
    assert got.shape == x.shape
    assert got.tobytes() == ref_stable_sigmoid(x).tobytes()


@settings(max_examples=200, deadline=None)
@given(inputs=kernel_inputs())
def test_sigmoid_and_silu_match_reference_bytes(inputs):
    x, g, _, _ = inputs
    assert run_op(T.sigmoid, x, g) == run_op(ref_sigmoid, x, g)
    assert run_op(T.silu, x, g) == run_op(ref_silu, x, g)


@settings(max_examples=300, deadline=None)
@given(inputs=kernel_inputs())
def test_layer_norm_matches_mean_var_reference_bytes(inputs):
    x, g, gamma, beta = inputs
    assert (run_op(T.layer_norm, x, g, gamma, beta)
            == run_op(ref_layer_norm, x, g, gamma, beta))


@pytest.mark.parametrize("op,n_params", [(T.sigmoid, 0), (T.silu, 0),
                                         (T.layer_norm, 2)])
def test_kernels_raise_no_floating_point_error_at_800(op, n_params):
    x = np.array([[-800.0, 800.0, -800.0, 0.5], [800.0, 800.0, -800.0, -800.0]])
    ins = [T.Tensor(x, requires_grad=True)] + [
        T.Tensor(v, requires_grad=True) for v in (np.ones(4), np.zeros(4))[:n_params]]
    with np.errstate(all="raise"):
        T.tsum(op(*ins)).backward()
    assert all(np.all(np.isfinite(t.grad)) for t in ins)


def _train_bytes(arch: ArchConfig, mode: str, epochs: int, seed: int,
                 n_subjects: int, missing_rate: float) -> tuple[bytes, str]:
    cfg = SyntheticConfig(n_subjects=n_subjects, visits_per_subject=5,
                          latent_dim=3, missing_rate=missing_rate)
    table, _ = generate_synthetic(cfg, seed=seed)
    fold = materialize_fold(table, table.unique_subjects()[:4], seed=seed)
    model = NkmModel(arch, seed=seed)
    res = train(model, fold.train, fold.val,
                OptimConfig(lr=3e-3, epochs=epochs, batch_size=32),
                LossConfig(), mode=mode, seed=seed)
    return res.model.params.to_vector().tobytes(), json.dumps(res.history)


@pytest.mark.parametrize("arch,mode,epochs,n_subjects,missing", [
    (ArchConfig(d_z=16, n_heads=4, dropout=0.05), "joint", 3, 24, 0.1),
    (full_arch(), "alternating", 1, 12, 0.0),
], ids=["desk-joint-dropout", "full-alternating"])
def test_training_is_byte_identical_to_reference_kernels(monkeypatch, arch, mode,
                                                         epochs, n_subjects, missing):
    args = (arch, mode, epochs, 8, n_subjects, missing)
    got = _train_bytes(*args)
    monkeypatch.setattr(T, "_stable_sigmoid", ref_stable_sigmoid)
    monkeypatch.setattr(nkm.model, "layer_norm", ref_layer_norm)
    monkeypatch.setattr(nkm.model, "silu", ref_silu)
    monkeypatch.setattr(nkm.model, "sigmoid", ref_sigmoid)
    assert _train_bytes(*args) == got
