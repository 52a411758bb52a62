"""The forecasting model: per-group encoders, residual temporal refinement,
hierarchical attention that emits a control vector, a spectrally constrained
linear latent step, and a residual decoder.

Per window of w standardized visits the model computes
    z_t = silu(W_int [h^(1); ...; h^(G)] + b_int),   h^(g) per-group MLP
    z_t^ref = z_t + sum of residual blocks
    c_t = g * c_feat + (1 - g) * c_time               (attention + gate)
    y_hat = decode(K z_last^ref + c_t)
c_time attends over the w refined states (n_heads column blocks of one Q, K
and V projection each), c_feat over the G group embeddings, both in `_attend`.
`forward` serves training and the loss: it encodes and refines all B*w
visits of a batch at once, as visit-major rows (row t*B + b is visit t of
window b), so that dropout draws a mask for every occurrence of a visit. All
its array math runs on the autodiff tape; diagnostics (attention weights,
gate) are detached copies. `latents` is the pass of every consumer that
needs no loss: it encodes and refines each distinct visit of overlapping
windows once, then runs the control, and builds no tape. `predict` decodes K z_last + c from it; the
bound harness, latent rollouts and `verify_descent`'s covariances read z and
c from it directly.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import schema
from .linalg import clip_singular_values, spectral_scale
from .optim import ParamStore
from .tensor import (Tensor, add, concat, dense_ln_silu, div, exp, matmul,
                     mul, no_grad, reshape, sigmoid, silu, sub, take_rows,
                     tmean, tsum, transpose)

# 2: temporal Q/K/V stored as stacked per-head blocks; 3: the manifest holds
# the sha256 of the .bin
_CHECKPOINT_FORMAT = 3

_DESK_HIDDEN = {"genetic": (12, 8), "csf": (12, 8), "pet": (12, 8),
                "mri": (24, 12), "demo": (12, 8)}
_FULL_HIDDEN = {"genetic": (90, 20), "csf": (90, 20), "pet": (90, 20),
                "mri": (180, 120), "demo": (90, 20)}


def _finite(v) -> bool:
    return isinstance(v, numbers.Real) and math.isfinite(v)


@dataclass
class ArchConfig:
    d_z: int = 16
    n_heads: int = 4
    groups: tuple[str, ...] = tuple(schema.GROUP_NAMES)
    group_hidden: dict[str, tuple[int, ...]] = field(
        default_factory=lambda: dict(_DESK_HIDDEN))
    n_refine_blocks: int = 5
    n_decoder_blocks: int = 3
    window: int = 3
    dropout: float = 0.1
    sigma_init: float = 1e-2
    rho_init: float = 0.99

    def __post_init__(self):
        if self.d_z < 1:
            raise ValueError("d_z must be >= 1")
        if self.n_heads < 1 or self.d_z % self.n_heads:
            raise ValueError("n_heads must divide d_z")
        groups = tuple(self.groups)
        if groups not in (tuple(schema.GROUP_NAMES),
                          tuple(g for g in schema.GROUP_NAMES if g != "demo")):
            raise ValueError("groups must be the full set or the set without demo")
        self.groups = groups
        for g in groups:
            hidden = tuple(self.group_hidden.get(g, ()))
            if not hidden or any(h < 1 for h in hidden):
                raise ValueError(f"group {g!r} needs positive hidden widths")
            self.group_hidden[g] = hidden
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must be in [0, 1)")
        if self.n_refine_blocks < 0 or self.n_decoder_blocks < 0:
            raise ValueError("block counts must be >= 0")
        # init_koopman clips every singular value to rho_init: a negative one
        # flips K to -U V^T with ||K||_2 = 1, and zero leaves R_spec non-finite
        if not (_finite(self.sigma_init) and self.sigma_init >= 0):
            raise ValueError("sigma_init must be a finite number >= 0")
        if not (_finite(self.rho_init) and self.rho_init > 0):
            raise ValueError("rho_init must be a finite number > 0")

    @property
    def d_k(self) -> int:
        return self.d_z // self.n_heads


def full_arch() -> ArchConfig:
    """The published architecture: 360-d latent, 8 heads, deep encoders."""
    return ArchConfig(d_z=360, n_heads=8, group_hidden=dict(_FULL_HIDDEN))


@dataclass
class AblationFlags:
    no_control: bool = False
    no_temporal_attention: bool = False
    no_feature_attention: bool = False
    no_spectral_reg: bool = False

    def __post_init__(self):
        if sum([self.no_control, self.no_temporal_attention,
                self.no_feature_attention, self.no_spectral_reg]) > 1:
            raise ValueError("at most one ablation flag may be set")

    @staticmethod
    def from_name(name: str) -> "AblationFlags":
        if name == "full":
            return AblationFlags()
        valid = ("no_control", "no_temporal_attention",
                 "no_feature_attention", "no_spectral_reg")
        if name not in valid:
            raise ValueError(f"unknown ablation setup {name!r}")
        return AblationFlags(**{name: True})


ABLATION_SETUPS = ["full", "no_control", "no_temporal_attention",
                   "no_feature_attention", "no_spectral_reg"]


def init_koopman(d_z: int, sigma_init: float, rho_init: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Identity plus a small Gaussian perturbation, singular values clipped."""
    K = np.eye(d_z) + sigma_init * rng.standard_normal((d_z, d_z))
    return clip_singular_values(K, rho_init)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


@dataclass
class ForwardOut:
    pred: Tensor                 # (B, 3)
    control: Tensor              # (B, d_z)
    z_next: Tensor               # (B, d_z) = K z_last + c
    z: Tensor                    # (w*B, d_z) refined, row t*B + b = visit t of window b
    z_last: Tensor               # (B, d_z) the rows of visit w-1
    alpha: np.ndarray            # (B, n_heads, w) temporal weights
    beta: np.ndarray             # (B, n_groups) feature weights
    gate: np.ndarray             # (B, d_z)


def transition_rows(n_rows: int, B: int) -> tuple[slice, slice]:
    """(rows of z_t, rows of z_{t+1}) over every in-window transition of
    visit-major latents like `ForwardOut.z`."""
    return slice(0, n_rows - B), slice(B, n_rows)


def _row_hashes(bits: np.ndarray) -> np.ndarray:
    """A uint64 hash of each row of a (n, f) uint64 array: the xor-shifted
    entries dotted with odd column constants, wrapping mod 2**64.
    Equal rows hash equal; unequal rows may collide."""
    mult = (np.arange(1, 2 * bits.shape[1], 2, dtype=np.uint64)
            * np.uint64(0x9E3779B97F4A7C15))
    mixed = bits >> np.uint64(29)
    mixed ^= bits
    return mixed @ mult


def window_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Windows (B, w, 44) as the visit matrix and row indices that
    `NkmModel.latents` takes: each distinct visit row once, and window b's
    indices into those rows in visit order.

    Rows count as the same when their bytes are equal (so 0.0 and -0.0
    differ, and a NaN row is kept for the encoder to refuse). The distinct
    rows come out in the order of their bytes. Overlapping sliding windows
    share most visits: a 1000-window batch over w = 3 holds 3,000 visit
    rows, of which often only a few hundred are distinct.

    `np.unique` over a uint64 hash of each row groups the rows, every row
    is checked byte for byte against its group's first row, and only the
    distinct rows are sorted by their bytes. If two unequal rows share a
    hash, one `np.unique` over the rows' bytes does the whole job instead;
    both paths return the same arrays.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3:
        raise ValueError(f"expected windows (B, w, {schema.N_FEATURES}), "
                         f"got {X.shape}")
    B, w, f = X.shape
    flat = np.ascontiguousarray(X).reshape(B * w, f)
    bits = flat.view(np.uint64)
    _, first, group = np.unique(_row_hashes(bits), return_index=True,
                                return_inverse=True)
    key = np.dtype((np.void, flat.itemsize * f))
    if np.array_equal(bits, bits[first][group]):
        order = np.argsort(flat[first].view(key).ravel())
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        return flat[first[order]], rank[group].reshape(B, w)
    distinct, inverse = np.unique(flat.view(key).ravel(), return_inverse=True)
    return distinct.view(np.float64).reshape(-1, f), inverse.reshape(B, w)


class NkmModel:
    """Holds parameters and runs the forward pass. Seeded construction."""

    def __init__(self, arch: ArchConfig | None = None, seed: int = 0,
                 ablation: AblationFlags | None = None):
        self.arch = arch if arch is not None else ArchConfig()
        self.seed = int(seed)
        self.ablation = ablation if ablation is not None else AblationFlags()
        self.params = ParamStore()
        self._slices = schema.group_slices(list(self.arch.groups))
        self._build(np.random.default_rng(self.seed))

    def _build(self, rng: np.random.Generator) -> None:
        a = self.arch
        p = self.params
        emb_dim: dict[str, int] = {}
        for g in a.groups:
            d_in = len(schema.GROUP_COLUMNS[g])
            for i, h in enumerate(a.group_hidden[g]):
                p.add(f"enc.{g}.{i}.W", _glorot(rng, d_in, h))
                p.add(f"enc.{g}.{i}.b", np.zeros(h))
                p.add(f"enc.{g}.{i}.gamma", np.ones(h))
                p.add(f"enc.{g}.{i}.beta", np.zeros(h))
                d_in = h
            emb_dim[g] = d_in
        self._emb_dim = emb_dim

        fuse_in = sum(emb_dim.values())
        p.add("fuse.W", _glorot(rng, fuse_in, a.d_z))
        p.add("fuse.b", np.zeros(a.d_z))

        for i in range(a.n_refine_blocks):
            p.add(f"refine.{i}.W", _glorot(rng, a.d_z, a.d_z))
            p.add(f"refine.{i}.b", np.zeros(a.d_z))
            p.add(f"refine.{i}.gamma", np.ones(a.d_z))
            p.add(f"refine.{i}.beta", np.zeros(a.d_z))

        # drawn head by head (q, k, v per head), laid out as column blocks
        heads = [[_glorot(rng, a.d_z, a.d_k) for _ in "qkv"]
                 for _ in range(a.n_heads)]
        for j, name in enumerate("qkv"):
            p.add(f"attn_t.{name}.W", np.hstack([blocks[j] for blocks in heads]))
        p.add("attn_t.out.W", _glorot(rng, a.d_z, a.d_z))

        p.add("attn_f.q.W", _glorot(rng, a.d_z, a.d_k))
        for g in a.groups:
            p.add(f"attn_f.key.{g}.W", _glorot(rng, emb_dim[g], a.d_k))
            p.add(f"attn_f.val.{g}.W", _glorot(rng, emb_dim[g], a.d_z))

        p.add("gate.W", _glorot(rng, 2 * a.d_z, a.d_z))
        p.add("gate.b", np.zeros(a.d_z))

        p.add("koopman.K", init_koopman(a.d_z, a.sigma_init, a.rho_init, rng))

        for i in range(a.n_decoder_blocks):
            p.add(f"dec.{i}.W", _glorot(rng, a.d_z, a.d_z))
            p.add(f"dec.{i}.b", np.zeros(a.d_z))
            p.add(f"dec.{i}.gamma", np.ones(a.d_z))
            p.add(f"dec.{i}.beta", np.zeros(a.d_z))
        p.add("dec.head.W", _glorot(rng, a.d_z, schema.N_TARGETS))
        p.add("dec.head.b", np.zeros(schema.N_TARGETS))

    @property
    def K(self) -> Tensor:
        return self.params["koopman.K"]

    # ---- stage helpers -------------------------------------------------

    def _dropout_mask(self, shape: tuple[int, int], train: bool,
                      rng: np.random.Generator | None) -> np.ndarray | None:
        p = self.arch.dropout
        if not train or p == 0.0:
            return None
        if rng is None:
            raise ValueError("training-mode forward needs an rng for dropout")
        return (rng.random(shape) >= p) / (1.0 - p)

    def _block(self, h: Tensor, prefix: str, train: bool,
               rng: np.random.Generator | None) -> Tensor:
        """Dropout of silu(layer_norm(h W + b)), the parameters named
        `prefix`.W/.b/.gamma/.beta, as one tape op."""
        p = self.params
        W = p[f"{prefix}.W"]
        mask = self._dropout_mask((h.data.shape[0], W.data.shape[1]), train, rng)
        return dense_ln_silu(h, W, p[f"{prefix}.b"], p[f"{prefix}.gamma"],
                             p[f"{prefix}.beta"], mask)

    def encode_rows(self, x: np.ndarray, train: bool = False,
                    rng: np.random.Generator | None = None
                    ) -> tuple[Tensor, dict[str, Tensor]]:
        """One visit per row -> fused latent plus per-group embeddings."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != schema.N_FEATURES:
            raise ValueError(f"expected (n, {schema.N_FEATURES}) rows")
        if not np.all(np.isfinite(x)):
            raise ValueError("encoder input contains non-finite entries "
                             "(impute before the model)")
        embeds: dict[str, Tensor] = {}
        for g in self.arch.groups:
            h = Tensor(x[:, self._slices[g]])
            for i in range(len(self.arch.group_hidden[g])):
                h = self._block(h, f"enc.{g}.{i}", train, rng)
            embeds[g] = h
        cat = concat([embeds[g] for g in self.arch.groups], axis=1)
        fused = silu(add(matmul(cat, self.params["fuse.W"]), self.params["fuse.b"]))
        mask = self._dropout_mask(fused.data.shape, train, rng)
        if mask is not None:
            fused = mul(fused, Tensor(mask))
        return fused, embeds

    def refine(self, z: Tensor, train: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
        for i in range(self.arch.n_refine_blocks):
            z = add(z, self._block(z, f"refine.{i}", train, rng))
        return z

    @staticmethod
    def _attend(q: Tensor, keys: Tensor, vals: Tensor, n: int, heads: int
                ) -> tuple[Tensor, np.ndarray]:
        """Scaled dot-product attention of B queries over n candidates each.

        q is (B, heads*d); keys (n*B, heads*d) and vals (n*B, heads*e) are
        stacked candidate-major. Returns the (B, heads*e) context and the
        weights as a (B, heads, n) array.
        """
        B = q.data.shape[0]
        d = q.data.shape[1] // heads
        e = vals.data.shape[1] // heads
        scores = mul(tsum(mul(reshape(keys, (n, B, heads, d)),
                              reshape(q, (B, heads, d))), axis=3, keepdims=True),
                     1.0 / np.sqrt(d))                        # (n, B, heads, 1)
        ex = exp(sub(scores, Tensor(scores.data.max(axis=0))))
        weights = div(ex, tsum(ex, axis=0))
        ctx = tsum(mul(reshape(vals, (n, B, heads, e)), weights), axis=0)
        return (reshape(ctx, (B, heads * e)),
                weights.data[..., 0].transpose(1, 2, 0).copy())

    def temporal_context(self, z: Tensor, z_last: Tensor
                         ) -> tuple[Tensor, np.ndarray]:
        """Attention over the window's refined states z (visit-major rows),
        query = final state z_last.

        Returns (c_time, alpha) with alpha of shape (B, n_heads, w).
        """
        a = self.arch
        B = z_last.data.shape[0]
        w = z.data.shape[0] // B
        if self.ablation.no_temporal_attention:
            c = tmean(reshape(z, (w, B, a.d_z)), axis=0)
            return c, np.full((B, a.n_heads, w), 1.0 / w)

        q = matmul(z_last, self.params["attn_t.q.W"])
        ctx, alpha = self._attend(q, matmul(z, self.params["attn_t.k.W"]),
                                  matmul(z, self.params["attn_t.v.W"]),
                                  w, a.n_heads)
        return matmul(ctx, self.params["attn_t.out.W"]), alpha

    def feature_context(self, z_last: Tensor, embeds: dict[str, Tensor]
                        ) -> tuple[Tensor, np.ndarray]:
        """Attention over the final visit's group embeddings.

        Returns (c_feat, beta) with beta of shape (B, n_groups).
        """
        groups = self.arch.groups
        G = len(groups)
        B = z_last.data.shape[0]
        vals = concat([matmul(embeds[g], self.params[f"attn_f.val.{g}.W"])
                       for g in groups], axis=0)
        if self.ablation.no_feature_attention:
            c = tmean(reshape(vals, (G, B, self.arch.d_z)), axis=0)
            return c, np.full((B, G), 1.0 / G)
        q = matmul(z_last, self.params["attn_f.q.W"])
        keys = concat([matmul(embeds[g], self.params[f"attn_f.key.{g}.W"])
                       for g in groups], axis=0)
        c, beta = self._attend(q, keys, vals, G, 1)
        return c, beta[:, 0, :]

    def control(self, z: Tensor, z_last: Tensor, embeds_last: dict[str, Tensor]
                ) -> tuple[Tensor, np.ndarray, np.ndarray, np.ndarray]:
        """Gated mix of temporal and feature contexts; (c, alpha, beta, gate)."""
        B = z_last.data.shape[0]
        a = self.arch
        if self.ablation.no_control:
            zero = Tensor(np.zeros((B, a.d_z)))
            return (zero, np.full((B, a.n_heads, a.window), 1.0 / a.window),
                    np.full((B, len(a.groups)), 1.0 / len(a.groups)),
                    np.full((B, a.d_z), 0.5))
        c_time, alpha = self.temporal_context(z, z_last)
        c_feat, beta = self.feature_context(z_last, embeds_last)
        gin = concat([z_last, c_time], axis=1)
        gate = sigmoid(add(matmul(gin, self.params["gate.W"]), self.params["gate.b"]))
        ones = Tensor(np.ones_like(gate.data))
        c = add(mul(gate, c_feat), mul(sub(ones, gate), c_time))
        return c, alpha, beta, gate.data.copy()

    def koopman_step(self, z: Tensor, c: Tensor) -> Tensor:
        """z' = K z + c, batched over rows."""
        return add(matmul(z, transpose(self.K)), c)

    def decode(self, z: Tensor, train: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
        h = z
        for i in range(self.arch.n_decoder_blocks):
            h = add(h, self._block(h, f"dec.{i}", train, rng))
        return add(matmul(h, self.params["dec.head.W"]), self.params["dec.head.b"])

    def _check_windows(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        a = self.arch
        if X.ndim != 3 or X.shape[1] != a.window or X.shape[2] != schema.N_FEATURES:
            raise ValueError(f"expected windows (B, {a.window}, {schema.N_FEATURES}), "
                             f"got {X.shape}")
        return X

    def forward(self, X: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> ForwardOut:
        """Windows (B, w, 44) -> next-visit predictions plus diagnostics, on
        the tape; every visit of every window is encoded, so that training
        draws a dropout mask per occurrence."""
        X = self._check_windows(X)
        a = self.arch
        B = X.shape[0]
        rows = X.transpose(1, 0, 2).reshape(a.window * B, schema.N_FEATURES)
        z_enc, embeds = self.encode_rows(rows, train=train, rng=rng)
        z = self.refine(z_enc, train=train, rng=rng)
        last = slice((a.window - 1) * B, None)
        z_last = take_rows(z, last)
        embeds_last = {g: take_rows(h, last) for g, h in embeds.items()}
        c, alpha, beta, gate = self.control(z, z_last, embeds_last)
        z_next = self.koopman_step(z_last, c)
        pred = self.decode(z_next, train=train, rng=rng)
        return ForwardOut(pred, c, z_next, z, z_last, alpha, beta, gate)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Eval-mode predictions (B, 3) of windows (B, w, 44): decode
        K z_last + c from the latent pass, which encodes each distinct visit
        once; builds no tape. Equals `forward(X).pred` up to BLAS rounding of
        the changed row count, which the desk-size tests find bitwise equal
        unless the batch holds a single distinct visit."""
        X = self._check_windows(X)
        if not len(X):
            return np.zeros((0, schema.N_TARGETS))
        _, z_last, c = self.latents(*window_rows(X))
        with no_grad():
            return self.decode(self.koopman_step(Tensor(z_last), Tensor(c))).data

    def latents(self, visits: np.ndarray, rows: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eval-mode latents and controls of windows given as row indices,
        without the decoder; builds no tape.

        visits is a (m, 44) visit matrix and rows (n, w) indices into it, one
        window per row, as `visit_runs` and `window_rows` return them
        (w = arch.window). Every visit that some window uses is encoded and
        refined once, however many windows share it; the windows are then
        gathered visit-major as in `forward`. Returns (z, z_last, c): z
        (w*n, d_z) with row t*n + b visit t of window b, z_last (n, d_z) its
        last n rows, c (n, d_z) the controls. These equal `forward`'s z,
        z_last and control up to BLAS rounding of the changed row count; the
        desk-size tests find them bitwise equal.
        """
        rows = np.asarray(rows)
        w = self.arch.window
        if rows.ndim != 2 or rows.shape[1] != w:
            raise ValueError(f"expected window rows (n, {w}), got {rows.shape}")
        visits = np.asarray(visits)
        used = np.zeros(len(visits), dtype=bool)
        used[rows] = True
        # position of each used visit among the used ones, in visit order
        gather = (np.cumsum(used) - 1)[rows.T].ravel()      # visit-major
        last = slice((w - 1) * rows.shape[0], None)
        with no_grad():
            z_used, embeds = self.encode_rows(visits[used])
            z = self.refine(z_used).data[gather]
            embeds_last = {g: Tensor(h.data[gather[last]])
                           for g, h in embeds.items()}
            c = self.control(Tensor(z), Tensor(z[last]), embeds_last)[0]
        return z, z[last], c.data

    # ---- spectral control ----------------------------------------------

    def project_spectral(self, rho: float = 0.95) -> None:
        """Hard projection K <- K / max(1, ||K||_2 / rho), exact norm, in place."""
        self.K.data[...] = spectral_scale(self.K.data, rho)


# ---- checkpointing ------------------------------------------------------

def save_checkpoint(model: NkmModel, stem: str,
                    history: list[dict] | None = None,
                    extra: dict | None = None) -> tuple[str, str]:
    """Write `<stem>.json` (manifest) and `<stem>.bin` (little-endian float64,
    declaration order, its sha256 in the manifest). Returns the two paths."""
    raw = model.params.to_vector().astype("<f8").tobytes()
    manifest = {
        "format_version": _CHECKPOINT_FORMAT,
        "arch": asdict(model.arch),
        "ablation": asdict(model.ablation),
        "seed": model.seed,
        "param_names": model.params.names(),
        "param_shapes": {k: list(t.data.shape) for k, t in model.params.items()},
        "n_values": model.params.n_values(),
        "bin_sha256": hashlib.sha256(raw).hexdigest(),
        "history": history if history is not None else [],
    }
    if extra:
        manifest.update(extra)
    json_path, bin_path = stem + ".json", stem + ".bin"
    with open(json_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(bin_path, "wb") as fh:
        fh.write(raw)
    return json_path, bin_path


def load_checkpoint(stem: str) -> tuple[NkmModel, dict]:
    """Rebuild the model from `<stem>.json` + `<stem>.bin`, bit-exact."""
    json_path, bin_path = stem + ".json", stem + ".bin"
    if not os.path.exists(json_path) or not os.path.exists(bin_path):
        raise FileNotFoundError(f"checkpoint files {json_path} / {bin_path} missing")
    with open(json_path) as fh:
        manifest = json.load(fh)
    version = manifest.get("format_version")
    if version != _CHECKPOINT_FORMAT:
        raise ValueError(f"checkpoint format_version {version} is not readable; "
                         f"this version reads format_version {_CHECKPOINT_FORMAT} "
                         "(retrain to convert)")
    arch_d = dict(manifest["arch"])
    arch_d["groups"] = tuple(arch_d["groups"])
    arch_d["group_hidden"] = {k: tuple(v) for k, v in arch_d["group_hidden"].items()}
    arch = ArchConfig(**arch_d)
    model = NkmModel(arch, seed=manifest["seed"],
                     ablation=AblationFlags(**manifest["ablation"]))
    if model.params.names() != manifest["param_names"]:
        raise ValueError("checkpoint parameter names do not match the architecture")
    with open(bin_path, "rb") as fh:
        raw = fh.read()
    if hashlib.sha256(raw).hexdigest() != manifest["bin_sha256"]:
        raise ValueError(f"checkpoint binary {bin_path} does not match the "
                         "sha256 in its manifest")
    vec = np.frombuffer(raw, dtype="<f8")
    if vec.size != manifest["n_values"]:
        raise ValueError(f"checkpoint binary has {vec.size} values, manifest "
                         f"says {manifest['n_values']}")
    model.params.from_vector(vec)
    return model, manifest
