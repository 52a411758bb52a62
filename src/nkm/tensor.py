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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
            self.grad = np.zeros_like(self.data)
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
            a._accumulate(g * s * (1.0 - s))

    return _make(s, (a,), backward)


def silu(a) -> Tensor:
    """x * sigmoid(x), the swish activation."""
    a = as_tensor(a)
    s = _stable_sigmoid(a.data)
    out_data = a.data * s

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * s * (1.0 + a.data * (1.0 - s)))

    return _make(out_data, (a,), backward)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift.

    Population variance; eps guards the zero-variance case so an all-equal
    row maps to beta exactly.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = gamma.data * xhat + beta.data

    def backward(g):
        if beta.requires_grad:
            beta._accumulate(_unbroadcast(g, beta.data.shape))
        if gamma.requires_grad:
            gamma._accumulate(_unbroadcast(g * xhat, gamma.data.shape))
        if x.requires_grad:
            dxhat = g * gamma.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(inv * (dxhat - m1 - xhat * m2))

    return _make(out_data, (x, gamma, beta), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def take_rows(a, rows: slice) -> Tensor:
    """The block a[rows] along axis 0."""
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[rows] = g
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
