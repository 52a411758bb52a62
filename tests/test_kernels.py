"""Byte-level checks of the tape's kernels, fused ops and optimizer.

The references below are the code these replaced: the two-branch
boolean-mask sigmoid and the layer norm built on numpy's `mean` and `var`
with their backward passes; the dense block composed of matmul, add,
layer_norm, silu and a dropout mul; R_spec's power iteration written with
tape ops; the first-gradient store through `zeros_like`; and the per-tensor
AdamW and gradient clipping. The replacements take the same IEEE operations
per element in the same order, so values and every input gradient must
match them byte for byte, not to a tolerance.
"""
from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nkm.model
import nkm.training
from nkm import linalg
from nkm import tensor as T
from nkm.data import materialize_fold
from nkm.model import AblationFlags, ArchConfig, NkmModel, full_arch
from nkm.optim import (AdamW, OptimConfig, Parameter, ParamStore,
                       clip_global_norm)
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


def ref_dense_ln_silu(h, W, b, gamma, beta, mask=None) -> T.Tensor:
    """The block as separate tape ops, with the reference kernels."""
    out = ref_silu(ref_layer_norm(T.add(T.matmul(h, W), b), gamma, beta))
    return out if mask is None else T.mul(out, T.Tensor(mask))


def ref_dropout_mask(self, shape, train, rng):
    rate = self.arch.dropout
    if not train or rate == 0.0:
        return None
    return (rng.random(shape) >= rate) / (1.0 - rate)


def ref_block(self, h, prefix, train, rng) -> T.Tensor:
    """`NkmModel._block` as separate ops, drawing the dropout mask after the
    block's forward, with the shape of its output."""
    p = self.params
    out = ref_dense_ln_silu(h, p[f"{prefix}.W"], p[f"{prefix}.b"],
                            p[f"{prefix}.gamma"], p[f"{prefix}.beta"])
    mask = ref_dropout_mask(self, out.data.shape, train, rng)
    return out if mask is None else T.mul(out, T.Tensor(mask))


def ref_spectral_norm(K) -> T.Tensor:
    """The single-vector Gram power iteration on the tape."""
    K = T.as_tensor(K)
    v0 = np.random.default_rng(0).standard_normal((K.data.shape[1], 1))
    v0 /= np.linalg.norm(v0)
    v = T.Tensor(v0)
    Kt = T.transpose(K)
    for _ in range(10):
        w = T.matmul(Kt, T.matmul(K, v))
        v = T.div(w, T.l2_norm(w))
    return T.l2_norm(T.matmul(K, v))


def ref_accumulate(self, g):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def ref_clip_global_norm(params, max_norm: float) -> float:
    sq = 0.0
    for t in params.tensors():
        if t.grad is not None:
            sq += float(np.sum(t.grad * t.grad))
    total = float(np.sqrt(sq))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for t in params.tensors():
            if t.grad is not None:
                t.grad *= scale
    return total


class RefAdamW:
    """Per-tensor AdamW with its temporaries, updating `.data` in place."""

    def __init__(self, params, cfg):
        self.params = params
        self.cfg = cfg
        self.lr = cfg.lr
        self.t = 0
        self._m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self._v = {k: np.zeros_like(t.data) for k, t in params.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.cfg.betas
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self._m[k]
            v = self._v[k]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            mhat = m / bc1
            vhat = v / bc2
            p.data *= (1.0 - self.lr * self.cfg.weight_decay)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.cfg.eps)


@contextmanager
def reference_first_gradients():
    """Store every first gradient through zeros_like, parameters included."""
    with mock.patch.object(T.Tensor, "_accumulate", ref_accumulate), \
            mock.patch.object(Parameter, "_accumulate", ref_accumulate):
        yield


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


def run_op(op, x: np.ndarray, g: np.ndarray, *params: np.ndarray,
           frozen: tuple[int, ...] = (), reference: bool = False) -> list[bytes]:
    """Bytes of op's value and of the gradient of sum(op * g) for x and every
    parameter array; inputs listed in `frozen` need no gradient. With
    `reference`, every first gradient is stored through zeros_like."""
    ins = [T.Tensor(a.copy(), requires_grad=i not in frozen)
           for i, a in enumerate((x, *params))]
    with (reference_first_gradients() if reference else nullcontext()), \
            np.errstate(all="ignore"):
        out = op(*ins)
        T.tsum(T.mul(out, T.Tensor(g))).backward()
    return [out.data.tobytes()] + [b"" if t.grad is None else t.grad.tobytes()
                                   for t in ins]


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
    """The layer-norm kernels: the value, xhat (through gamma's gradient)
    and the gradient of x, which the reference stores as 0.0 + g."""
    x, g, gamma, beta = inputs
    with np.errstate(all="ignore"):
        out, xhat, inv = T._layer_norm_values(x, gamma, beta)
        got = [out, T._unbroadcast(g * xhat, gamma.shape) + 0.0,
               T._layer_norm_grad_x(g, gamma, xhat, inv) + 0.0]
    want = run_op(ref_layer_norm, x, g, gamma, beta)
    assert [a.tobytes() for a in got] == [want[0], want[2], want[1]]


def ln_block(x, gamma, beta) -> T.Tensor:
    """The layer norm as the model runs it: a dense block with identity
    weights and a zero bias, so its pre-activation is x exactly."""
    n = x.data.shape[-1]
    return T.dense_ln_silu(x, np.eye(n), np.zeros(n), gamma, beta)


@pytest.mark.parametrize("op,n_params", [(T.sigmoid, 0), (T.silu, 0),
                                         pytest.param(ln_block, 2, id="layer_norm-2")])
def test_kernels_raise_no_floating_point_error_at_800(op, n_params):
    x = np.array([[-800.0, 800.0, -800.0, 0.5], [800.0, 800.0, -800.0, -800.0]])
    ins = [T.Tensor(x, requires_grad=True)] + [
        T.Tensor(v, requires_grad=True) for v in (np.ones(4), np.zeros(4))[:n_params]]
    with np.errstate(all="raise"):
        T.tsum(op(*ins)).backward()
    assert all(np.all(np.isfinite(t.grad)) for t in ins)


@st.composite
def block_inputs(draw):
    """(h, W, b, gamma, beta, g, mask, frozen) of one dense block: up to 48
    rows, widths 1-24, h at one of several scales with occasional specials,
    g with signed zeros, a dropout mask or none, and h with or without a
    gradient (an encoder's first layer has none)."""
    rows, d_in, d_out = (draw(st.integers(1, 48)), draw(st.integers(1, 24)),
                         draw(st.integers(1, 24)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.standard_normal((rows, d_in)) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
    special = rng.random(h.shape) < draw(st.sampled_from([0.0, 0.0, 0.02]))
    h[special] = rng.choice(SPECIAL, int(special.sum()))
    W = rng.standard_normal((d_in, d_out)) * draw(st.sampled_from([0.0, 0.3, 1.0]))
    b, gamma, beta = (rng.standard_normal(d_out) for _ in range(3))
    g = rng.standard_normal((rows, d_out))
    g[rng.random(g.shape) < 0.1] = -0.0
    p = draw(st.sampled_from([None, 0.1, 0.5]))
    mask = None if p is None else (rng.random((rows, d_out)) >= p) / (1.0 - p)
    frozen = (0,) if draw(st.booleans()) else ()
    return h, W, b, gamma, beta, g, mask, frozen


@settings(max_examples=300, deadline=None)
@given(inputs=block_inputs())
def test_dense_ln_silu_matches_composed_reference_bytes(inputs):
    h, W, b, gamma, beta, g, mask, frozen = inputs

    def fused(*ins):
        return T.dense_ln_silu(*ins, mask)

    def composed(*ins):
        return ref_dense_ln_silu(*ins, mask)

    assert (run_op(fused, h, g, W, b, gamma, beta, frozen=frozen)
            == run_op(composed, h, g, W, b, gamma, beta, frozen=frozen,
                      reference=True))


def rspec_bytes(norm_op, K0: np.ndarray, rho: float, reference: bool = False
                ) -> tuple[bytes, bytes]:
    """(value, K.grad) bytes of a composite-loss-shaped graph: K reaches the
    loss through a Koopman step and an L_koop residual, each via a
    transpose, and through the hinge eta * max(0, sigma^2 - rho^2)^2."""
    d = K0.shape[0]
    rng = np.random.default_rng(d)
    Z1, Z2, C = (T.Tensor(rng.standard_normal((5, d))) for _ in range(3))
    with reference_first_gradients() if reference else nullcontext():
        K = T.Tensor(K0.copy(), requires_grad=True)
        l_step = T.tsum(T.square(T.add(T.matmul(Z1, T.transpose(K)), C)))
        l_koop = T.tsum(T.square(T.sub(Z2, T.matmul(Z1, T.transpose(K)))))
        sig = norm_op(K)
        hinge = T.relu(T.sub(T.square(sig), rho ** 2))
        total = T.add(T.add(l_step, T.mul(l_koop, 0.1)),
                      T.mul(T.square(hinge), 0.01))
        total.backward()
    return sig.data.tobytes(), K.grad.tobytes()


def hinge_matrix(d: int, seed: int, active: bool) -> tuple[np.ndarray, float]:
    """(K, rho) with the power-iteration estimate of ||K||_2 above rho
    (active hinge) or below it."""
    K = np.eye(d) + 0.3 * np.random.default_rng(seed).standard_normal((d, d))
    with T.no_grad():
        sig = float(linalg.spectral_norm_differentiable(K).data)
    return K, (0.8 if active else 1.25) * sig


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 24), seed=st.integers(0, 2**32 - 1), active=st.booleans())
def test_spectral_norm_node_matches_tape_reference_bytes(d, seed, active):
    K, rho = hinge_matrix(d, seed, active)
    got = rspec_bytes(linalg.spectral_norm_differentiable, K, rho)
    assert got == rspec_bytes(ref_spectral_norm, K, rho, reference=True)


@pytest.mark.parametrize("active", [True, False], ids=["active", "inactive"])
def test_spectral_norm_node_matches_tape_reference_at_full_size(active):
    K, rho = hinge_matrix(360, 4, active)
    got = rspec_bytes(linalg.spectral_norm_differentiable, K, rho)
    assert got == rspec_bytes(ref_spectral_norm, K, rho, reference=True)


@settings(max_examples=200, deadline=None)
@given(inputs=kernel_inputs(), fortran=st.booleans(), second=st.booleans())
def test_first_gradient_store_matches_zeros_like(inputs, fortran, second):
    x, g, _, _ = inputs
    g = np.asfortranarray(g) if fortran else g
    g[np.random.default_rng(0).random(g.shape) < 0.2] = -0.0
    got, want = T.Tensor(x), T.Tensor(x)
    for gi in (x, g)[:1 + second]:
        with np.errstate(all="ignore"):
            got._accumulate(gi)
            ref_accumulate(want, gi)
    assert got.grad.tobytes() == want.grad.tobytes()
    assert got.grad.flags.c_contiguous == want.grad.flags.c_contiguous


@st.composite
def optimizer_runs(draw):
    """Shapes of a few parameters (one may exceed an AdamW chunk), per-step
    gradients with some parameters left without one, the hyperparameters
    and a clip threshold."""
    n = draw(st.integers(1, 5))
    shapes = [draw(st.sampled_from([(1,), (3,), (17, 3), (257,), (64, 65),
                                    (200, 200)])) for _ in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        steps.append([None if rng.random() < 0.3 else
                      rng.standard_normal(k) * 10.0 ** rng.uniform(-3, 1)
                      for k in shapes])
    cfg = OptimConfig(lr=draw(st.sampled_from([1e-3, 3e-2])),
                      weight_decay=draw(st.sampled_from([0.0, 1e-3, 0.1])))
    return ([rng.standard_normal(k) for k in shapes], steps, cfg,
            draw(st.sampled_from([1e-3, 1.0, 1e3])))


@settings(max_examples=60, deadline=None)
@given(run=optimizer_runs(), through_tape=st.booleans())
def test_flat_adamw_and_clip_match_per_tensor_reference_bytes(run, through_tape):
    init, steps, cfg, max_norm = run

    def trained(opt_cls, clip, assign):
        ps = ParamStore()
        params = [ps.add(f"p{i}", v.copy()) for i, v in enumerate(init)]
        opt = opt_cls(ps, cfg)
        norms = []
        for grads in steps:
            ps.zero_grad()
            for p, g in zip(params, grads):
                if g is not None:
                    assign(p, g.copy())
            norms.append(clip(ps, max_norm))
            opt.step()
        return ps.to_vector().tobytes(), norms

    def assign(p, g):
        if through_tape:
            p._accumulate(g)      # into the parameter's gradient view
        else:
            p.grad = g            # a gradient set from outside

    def assign_ref(p, g):
        p.grad = g

    assert (trained(AdamW, clip_global_norm, assign)
            == trained(RefAdamW, ref_clip_global_norm, assign_ref))


def _train_bytes(arch: ArchConfig, mode: str, epochs: int, seed: int,
                 n_subjects: int, missing_rate: float, ablation: str
                 ) -> tuple[bytes, str]:
    cfg = SyntheticConfig(n_subjects=n_subjects, visits_per_subject=5,
                          latent_dim=3, missing_rate=missing_rate)
    table, _ = generate_synthetic(cfg, seed=seed)
    fold = materialize_fold(table, table.unique_subjects()[:4], seed=seed)
    model = NkmModel(arch, seed=seed, ablation=AblationFlags.from_name(ablation))
    res = train(model, fold.train, fold.val,
                OptimConfig(lr=3e-3, epochs=epochs, batch_size=32),
                LossConfig(), mode=mode, seed=seed)
    return res.model.params.to_vector().tobytes(), json.dumps(res.history)


@pytest.mark.parametrize("arch,mode,epochs,n_subjects,missing,ablation", [
    (ArchConfig(d_z=16, n_heads=4, dropout=0.05), "joint", 3, 24, 0.1, "full"),
    (ArchConfig(d_z=16, n_heads=4, dropout=0.1), "alternating", 2, 24, 0.1,
     "no_feature_attention"),
    (full_arch(), "alternating", 1, 12, 0.0, "full"),
], ids=["desk-joint-dropout", "desk-alternating-ablated", "full-alternating"])
def test_training_is_byte_identical_to_reference_kernels(monkeypatch, arch, mode,
                                                         epochs, n_subjects,
                                                         missing, ablation):
    args = (arch, mode, epochs, 8, n_subjects, missing, ablation)
    got = _train_bytes(*args)
    monkeypatch.setattr(T, "_stable_sigmoid", ref_stable_sigmoid)
    monkeypatch.setattr(NkmModel, "_block", ref_block)
    monkeypatch.setattr(NkmModel, "_dropout_mask", ref_dropout_mask)
    monkeypatch.setattr(nkm.model, "silu", ref_silu)
    monkeypatch.setattr(nkm.model, "sigmoid", ref_sigmoid)
    monkeypatch.setattr(nkm.training, "spectral_norm_differentiable",
                        ref_spectral_norm)
    monkeypatch.setattr(nkm.training, "AdamW", RefAdamW)
    monkeypatch.setattr(nkm.training, "clip_global_norm", ref_clip_global_norm)
    with reference_first_gradients():
        assert _train_bytes(*args) == got
