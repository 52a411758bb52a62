"""Reverse-mode automatic differentiation over float64 numpy arrays.

Small tape: each Tensor remembers its parents and a closure that routes the
upstream gradient to them. Everything is float64; shapes follow numpy
broadcasting for elementwise ops, matmul is strictly 2-D. Inside `no_grad()`
ops compute values only and record nothing.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) otherwise, with no
    masked gathers: both branches share e = exp(-|x|), and the numerator
    e*[x < 0] + [x >= 0] is exactly 1 or e. NaN keeps its sign and payload,
    since minimum(x, -x) returns x when x is NaN."""
    e = np.negative(x, out=np.empty_like(x))   # an array also for 0-d x
    np.minimum(x, e, out=e)
    with np.errstate(under="ignore"):  # e^-|x| -> 0 is the saturated value
        np.exp(e, out=e)
    den = np.add(1.0, e)
    np.multiply(e, x < 0, out=e)
    np.add(e, x >= 0, out=e)
    return np.divide(e, den, out=e)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # 0.0 + g in the layout of data: the values and layout a zero
            # array plus g would have, without filling the zeros first
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar output."""
        if self.data.shape != ():
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                topo.append(node)
                continue
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _TapeMode(threading.local):
    # per thread, so a predict in one thread cannot turn off the tape of a
    # training step in another
    recording = True


_mode = _TapeMode()


@contextmanager
def no_grad():
    """Record no tape inside the block: every op result has no parents and
    needs no gradient, so nothing can be backpropagated through it."""
    saved, _mode.recording = _mode.recording, False
    try:
        yield
    finally:
        _mode.recording = saved


def _make(data, parents, backward) -> Tensor:
    req = _mode.recording and any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req,
                  _parents=tuple(parents) if req else (),
                  _backward=backward if req else None)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(-g)

    return _make(-a.data, (a,), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D tensors")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(out_data, (a, b), backward)


def transpose(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.T)

    return _make(a.data.T, (a,), backward)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(gg, a.data.shape).copy())

    return _make(out_data, (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    else:
        n = a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def square(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * 2.0 * a.data)

    return _make(a.data * a.data, (a,), backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * 0.5 / out_data)

    return _make(out_data, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out_data)

    return _make(out_data, (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0))

    return _make(np.maximum(a.data, 0.0), (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    s = _stable_sigmoid(a.data)

    def backward(g):
        if a.requires_grad:
            gs = g * s
            a._accumulate(np.multiply(gs, np.subtract(1.0, s), out=gs))

    return _make(s, (a,), backward)


# ---- shared kernels of silu and dense_ln_silu -------------------------------

_LN_EPS = 1e-5   # guards a zero-variance row, which then maps to beta exactly


def _silu_grad(g: np.ndarray, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """d silu(x) given s = sigmoid(x): g*s * (1 + x*(1 - s)), in that order."""
    t = np.subtract(1.0, s)
    np.multiply(x, t, out=t)
    np.add(1.0, t, out=t)
    gs = g * s
    return np.multiply(gs, t, out=gs)


def _layer_norm_values(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gamma * xhat + beta, xhat, 1/sqrt(var + _LN_EPS)) over the last axis.

    Mean and variance take numpy's `mean` and `var` steps (sum, divide by n;
    subtract, square, sum, divide by n), so the values are theirs bit for
    bit, but the row sum and the centred array are computed once.
    """
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    np.divide(mu, n, out=mu)
    xhat = np.subtract(x, mu)
    out = np.square(xhat)
    var = np.add.reduce(out, axis=-1, keepdims=True)
    np.divide(var, n, out=var)
    np.add(var, _LN_EPS, out=var)
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    np.multiply(xhat, inv, out=xhat)
    np.multiply(gamma, xhat, out=out)
    np.add(out, beta, out=out)
    return out, xhat, inv


def _layer_norm_grad_x(g: np.ndarray, gamma: np.ndarray, xhat: np.ndarray,
                       inv: np.ndarray) -> np.ndarray:
    """inv * (dxhat - m1 - xhat*m2), dxhat = g*gamma and m1, m2 the row
    means of dxhat and dxhat*xhat."""
    n = xhat.shape[-1]
    dxhat = g * gamma
    t = dxhat * xhat
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True)
    np.divide(m1, n, out=m1)
    m2 = np.add.reduce(t, axis=-1, keepdims=True)
    np.divide(m2, n, out=m2)
    np.subtract(dxhat, m1, out=dxhat)
    np.subtract(dxhat, np.multiply(xhat, m2, out=t), out=dxhat)
    return np.multiply(inv, dxhat, out=dxhat)


def silu(a) -> Tensor:
    """x * sigmoid(x), the swish activation."""
    a = as_tensor(a)
    s = _stable_sigmoid(a.data)
    out_data = a.data * s

    def backward(g):
        if a.requires_grad:
            a._accumulate(_silu_grad(g, a.data, s))

    return _make(out_data, (a,), backward)


def dense_ln_silu(h, W, b, gamma, beta, mask: np.ndarray | None = None) -> Tensor:
    """silu(layer_norm(h @ W + b, gamma, beta)) * mask as one tape node.

    The layer norm works over the last axis with the population variance.
    The values are those of a matmul, add, layer norm, silu and (with a
    mask) mul op composed, and the backward replays their chain in the
    tape's order, so every input gradient matches the composition's byte for
    byte. The composed nodes stored their gradients as 0.0 + g, which
    differs from g only in the sign of a zero; no backward step divides by a
    gradient, and each input's own first store adds 0.0 again, so the chain
    skips those stores.
    """
    h, W, b = as_tensor(h), as_tensor(W), as_tensor(b)
    gamma, beta = as_tensor(gamma), as_tensor(beta)
    pre = h.data @ W.data
    np.add(pre, b.data, out=pre)
    ln, xhat, inv = _layer_norm_values(pre, gamma.data, beta.data)
    s = _stable_sigmoid(ln)
    act = ln * s
    out_data = act if mask is None else np.multiply(act, mask, out=act)

    def backward(g):
        if mask is not None:
            g = g * mask
        g_ln = _silu_grad(g, ln, s)
        if beta.requires_grad:
            beta._accumulate(_unbroadcast(g_ln, beta.data.shape))
        if gamma.requires_grad:
            gamma._accumulate(_unbroadcast(g_ln * xhat, gamma.data.shape))
        if not (h.requires_grad or W.requires_grad or b.requires_grad):
            return
        g_pre = _layer_norm_grad_x(g_ln, gamma.data, xhat, inv)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g_pre, b.data.shape))
        if h.requires_grad:
            h._accumulate(g_pre @ W.data.T)
        if W.requires_grad:
            W._accumulate(h.data.T @ g_pre)

    return _make(out_data, (h, W, b, gamma, beta), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def take_rows(a, rows: slice | np.ndarray) -> Tensor:
    """a[rows] along axis 0: a block for a slice, or the rows an integer index
    array names, in its order and as often as it names them. The backward
    adds each occurrence's gradient into its row, in index order; an index
    that names no row twice stores 0.0 + g by assignment, the values
    np.add.at would leave, signed zeros included."""
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            if isinstance(rows, slice):
                full[rows] = g
            elif np.bincount(rows % len(full)).max(initial=0) <= 1:
                full[rows] = g + 0.0
            else:
                np.add.at(full, rows, g)
            a._accumulate(full)

    return _make(a.data[rows], (a,), backward)


def concat(parts: list[Tensor], axis: int) -> Tensor:
    """Concatenate tensors along `axis`."""
    parts = [as_tensor(p) for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    cuts = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def backward(g):
        for p, gp in zip(parts, np.split(g, cuts, axis=axis)):
            if p.requires_grad:
                p._accumulate(gp)

    return _make(out_data, tuple(parts), backward)


def sum_squares(a) -> Tensor:
    """Scalar sum of squared entries."""
    return tsum(square(a))


def l2_norm(a) -> Tensor:
    """Euclidean norm of all entries, as a scalar tensor."""
    return sqrt(sum_squares(a))
