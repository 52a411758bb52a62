"""Parameter store, AdamW, gradient clipping, and the optimizer settings.

`OptimConfig` also holds the plateau decay and early-stop settings; `train`
applies them from its own best-epoch record."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check_int, check_number
from .tensor import Tensor


_CHUNK = 1 << 15   # elements per AdamW pass over the flat vectors


class Parameter(Tensor):
    """A trainable tensor of a ParamStore. Once the store is packed, its
    value is a view of the store's value vector, and its first gradient of a
    step is written into the matching view of the gradient vector."""
    __slots__ = ("_grad_view",)

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self._grad_view = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None and self._grad_view is not None:
            self.grad = np.add(g, 0.0, out=self._grad_view)
        else:
            super()._accumulate(g)


class ParamStore:
    """Ordered name -> Parameter mapping. Declaration order is the
    serialization order.

    The first call that needs flat storage packs every parameter, in
    declaration order, into one float64 value vector and gives it a view of
    one gradient vector; adding a parameter repacks. From then on each
    parameter's `.data` is a view of the value vector. Writing in place
    (`t.data[...] = x`) needs no copy; a rebound `.data` of the same shape
    is copied back into its view by the next call that needs flat storage.
    `grad is None` still means "no gradient this step".
    """

    def __init__(self):
        self._params: dict[str, Parameter] = {}
        self._values: np.ndarray | None = None
        self._grads: np.ndarray | None = None
        # (name, parameter, its value view, lo, hi) in declaration order
        self._layout: list[tuple[str, Parameter, np.ndarray, int, int]] = []

    def add(self, name: str, data: np.ndarray) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Parameter(data)
        self._params[name] = t
        self._values = None
        return t

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """(value vector, gradient vector), packing the parameters on first
        use. A gradient entry holds data only while its parameter's `.grad`
        is its view."""
        if self._values is None:
            n = self.n_values()
            self._values, self._grads = np.empty(n), np.empty(n)
            self._layout = []
            lo = 0
            for name, t in self._params.items():
                hi = lo + t.data.size
                view = self._values[lo:hi].reshape(t.data.shape)
                view[...] = t.data
                t.data = view
                t._grad_view = self._grads[lo:hi].reshape(view.shape)
                self._layout.append((name, t, view, lo, hi))
                lo = hi
        else:
            for name, t, view, _, _ in self._layout:
                if t.data is not view:
                    if np.shape(t.data) != view.shape:
                        raise ValueError(f"parameter {name!r} was rebound to shape "
                                         f"{np.shape(t.data)}, expected {view.shape}")
                    view[...] = t.data
                    t.data = view
        return self._values, self._grads

    def grad_spans(self) -> list[tuple[int, int]]:
        """[lo, hi) spans in the flat vectors of the parameters that have a
        gradient, in declaration order. A gradient assigned from outside is
        first copied into the parameter's view of the gradient vector, which
        then becomes its `.grad`."""
        self.flat()
        spans = []
        for _, t, _, lo, hi in self._layout:
            if t.grad is None:
                continue
            if t.grad is not t._grad_view:
                t._grad_view[...] = t.grad
                t.grad = t._grad_view
            spans.append((lo, hi))
        return spans

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self) -> list[Parameter]:
        return list(self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def n_values(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def to_vector(self) -> np.ndarray:
        """A copy of all parameters, declaration order, row-major within each."""
        return self.flat()[0].copy()

    def from_vector(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.size != self.n_values():
            raise ValueError(f"expected {self.n_values()} values, got {vec.size}")
        self.flat()[0][:] = vec.ravel()

    def copy_values(self) -> dict[str, np.ndarray]:
        """name -> a copy of its value.

        One copy per parameter, not one vector-sized snapshot: `train` takes
        a snapshot at every new best epoch, and freeing vector-sized blocks
        that often left glibc serving later ones from a heap that does not
        shrink (peak RSS of a full-size run 323 MB, against 292 MB so).
        """
        self.flat()
        return {name: view.copy() for name, _, view, _, _ in self._layout}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        if not self._params:
            return
        parts = [np.asarray(values[k], dtype=np.float64).reshape(t.data.shape).ravel()
                 for k, t in self._params.items()]
        np.concatenate(parts, out=self.flat()[0])


@dataclass
class OptimConfig:
    lr: float = 4e-4
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 1e-3
    clip_norm: float = 1.0
    batch_size: int = 128
    epochs: int = 200
    plateau_factor: float = 0.5
    plateau_patience: int = 8
    early_stop_patience: int = 20

    def __post_init__(self):
        for name in ("lr", "eps", "clip_norm"):
            check_number(getattr(self, name), name, 0, lo_open=True)
        check_number(self.weight_decay, "weight_decay", 0)
        for i, beta in enumerate(self.betas):
            check_number(beta, f"betas[{i}]", 0, 1, hi_open=True)
        check_number(self.plateau_factor, "plateau_factor", 0, 1, lo_open=True)
        for name, lo in (("batch_size", 1), ("epochs", 1),
                         ("plateau_patience", 0), ("early_stop_patience", 0)):
            check_int(getattr(self, name), name, lo)


def _runs(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Adjacent spans merged into maximal runs."""
    runs: list[tuple[int, int]] = []
    for lo, hi in spans:
        if runs and runs[-1][1] == lo:
            runs[-1] = (runs[-1][0], hi)
        else:
            runs.append((lo, hi))
    return runs


def clip_global_norm(params: ParamStore, max_norm: float) -> float:
    """Scale all grads so their joint L2 norm is <= max_norm. Returns pre-clip
    norm, its squares summed tensor by tensor in declaration order."""
    spans = params.grad_spans()
    grads = params.flat()[1]
    sq = 0.0
    for lo, hi in spans:
        g = grads[lo:hi]
        sq += float(np.add.reduce(g * g))
    total = float(np.sqrt(sq))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for lo, hi in _runs(spans):
            grads[lo:hi] *= scale
    return total


class AdamW:
    """Decoupled weight decay Adam.

    Update order per step, for each parameter p with gradient g:
        m <- b1 m + (1-b1) g ;  v <- b2 v + (1-b2) g^2
        mhat = m / (1 - b1^t) ;  vhat = v / (1 - b2^t)
        p <- p (1 - lr wd)
        p <- p - lr mhat / (sqrt(vhat) + eps)
    m and v are flat vectors beside the store's; each run of parameters with
    a gradient is updated in place, _CHUNK elements at a time through one
    small scratch pair, with the same operations per element as above.
    """

    def __init__(self, params: ParamStore, cfg: OptimConfig):
        self.params = params
        self.cfg = cfg
        self.lr = cfg.lr
        self.t = 0
        n = params.flat()[0].size
        self._m = np.zeros(n)
        self._v = np.zeros(n)
        self._scratch = (np.empty(min(n, _CHUNK)), np.empty(min(n, _CHUNK)))

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.cfg.betas
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        decay = 1.0 - self.lr * self.cfg.weight_decay
        values, grads = self.params.flat()
        for lo, hi in _runs(self.params.grad_spans()):
            for start in range(lo, hi, _CHUNK):
                chunk = slice(start, min(start + _CHUNK, hi))
                g, m, v, p = grads[chunk], self._m[chunk], self._v[chunk], values[chunk]
                a, b = (s[:g.size] for s in self._scratch)
                m *= b1
                m += np.multiply(g, 1.0 - b1, out=a)
                v *= b2
                a = np.multiply(g, g, out=a)
                a *= 1.0 - b2
                v += a
                np.divide(m, bc1, out=a)                # mhat
                np.divide(v, bc2, out=b)                # vhat
                np.sqrt(b, out=b)
                b += self.cfg.eps
                a *= self.lr
                a /= b
                p *= decay
                p -= a
