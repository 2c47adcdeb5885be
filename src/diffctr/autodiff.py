"""Reverse-mode differentiation over dense float64 arrays.

Every operation returns a fresh Tensor recording its parents and one
vector-Jacobian closure per parent; backward() walks the recorded tape
in reverse topological order with a fixed left-to-right accumulation,
so repeated runs are bit-identical. Values are checked finite at
creation time, which names the op that produced a NaN/Inf instead of
letting it surface three modules later.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, ShapeError

# Finite stand-in for log(0) in additive logsumexp masks. Small enough to
# vanish under exp, large enough to stay finite through any sum.
LOG_ZERO = -1e30

_adjoint_faults: dict[str, float] = {}


@contextmanager
def adjoint_fault(op: str, scale: float):
    """Scale one op's adjoint while active. Negative control for grad checks."""
    _adjoint_faults[op] = scale
    try:
        yield
    finally:
        _adjoint_faults.pop(op, None)


class Tensor:
    """One tape node: a float64 array plus how it was computed."""

    __slots__ = ("data", "op", "parents", "vjps", "tracked", "grad")

    def __init__(self, data, op="leaf", parents=(), vjps=(), tracked=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.op = op
        self.parents = tuple(parents)
        self.vjps = tuple(vjps)
        self.tracked = any(p.tracked for p in self.parents) if tracked is None else tracked
        self.grad = None
        if not np.all(np.isfinite(self.data)):
            raise NumericError(f"op '{op}' produced non-finite values")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r})"

    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __neg__(self):
        return smul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))


def const(data) -> Tensor:
    """Untracked constant node."""
    return Tensor(data, op="const", tracked=False)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else const(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over broadcast axes so it matches `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return np.reshape(grad, shape)


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(
            f"{op}: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_broadcast("add", a, b)
    return Tensor(
        a.data + b.data,
        op="add",
        parents=(a, b),
        vjps=(
            lambda g: _unbroadcast(g, a.data.shape),
            lambda g: _unbroadcast(g, b.data.shape),
        ),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_broadcast("sub", a, b)
    return Tensor(
        a.data - b.data,
        op="sub",
        parents=(a, b),
        vjps=(
            lambda g: _unbroadcast(g, a.data.shape),
            lambda g: _unbroadcast(-g, b.data.shape),
        ),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_broadcast("mul", a, b)
    return Tensor(
        a.data * b.data,
        op="mul",
        parents=(a, b),
        vjps=(
            lambda g: _unbroadcast(g * b.data, a.data.shape),
            lambda g: _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def smul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor(a.data * c, op="smul", parents=(a,), vjps=(lambda g: g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(
            f"matmul: operands must have rank >= 2, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.data.shape} @ {b.data.shape}")
    try:
        np.broadcast_shapes(a.data.shape[:-2], b.data.shape[:-2])
    except ValueError:
        raise ShapeError(
            f"matmul: batch dimensions differ, {a.data.shape} @ {b.data.shape}"
        ) from None

    if a.data.ndim > 2 and b.data.ndim == 2:
        # collapse the batch into one GEMM; numpy's strided batched matmul
        # is far slower than a single large multiply
        lead = a.data.shape[:-1]
        k = a.data.shape[-1]
        flat = a.data.reshape(-1, k)
        out = (flat @ b.data).reshape(lead + (b.data.shape[-1],))
        return Tensor(
            out,
            op="matmul",
            parents=(a, b),
            vjps=(
                lambda g: (g.reshape(-1, b.data.shape[-1]) @ b.data.T).reshape(a.data.shape),
                lambda g: flat.T @ g.reshape(-1, b.data.shape[-1]),
            ),
        )

    return Tensor(
        a.data @ b.data,
        op="matmul",
        parents=(a, b),
        vjps=(
            lambda g: _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape),
            lambda g: _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape),
        ),
    )


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: rank >= 2 required, got {a.data.shape}")
    return Tensor(
        np.swapaxes(a.data, -1, -2),
        op="transpose",
        parents=(a,),
        vjps=(lambda g: np.swapaxes(g, -1, -2),),
    )


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return Tensor(
        np.where(mask, a.data, 0.0),
        op="relu",
        parents=(a,),
        vjps=(lambda g: g * mask,),
    )


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow becomes the finite-check error
        out = np.exp(a.data)
    return Tensor(out, op="exp", parents=(a,), vjps=(lambda g: g * out,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise NumericError("log: non-positive input")
    return Tensor(np.log(a.data), op="log", parents=(a,), vjps=(lambda g: g / a.data,))


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x), computed without overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    out = _logistic(a.data)
    return Tensor(out, op="sigmoid", parents=(a,), vjps=(lambda g: g * out * (1.0 - out),))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed without overflow; its slope is the logistic."""
    sig = _logistic(a.data)
    return Tensor(np.logaddexp(0.0, a.data), op="softplus", parents=(a,), vjps=(lambda g: g * sig,))


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    return Tensor(
        a.data.sum(axis=axis, keepdims=keepdims),
        op="sum",
        parents=(a,),
        vjps=(lambda g: _expand_reduced(g, a.data.shape, axis, keepdims),),
    )


def tmean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return Tensor(
        a.data.mean(axis=axis, keepdims=keepdims),
        op="mean",
        parents=(a,),
        vjps=(lambda g: _expand_reduced(g, a.data.shape, axis, keepdims) / count,),
    )


def gather_rows(table: Tensor, idx) -> Tensor:
    """Row lookup table[idx]; the adjoint scatter-adds back into the table."""
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows: table must be rank 2, got {table.data.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    rows = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ShapeError(f"gather_rows: index out of range for table with {rows} rows")

    def vjp(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, idx.reshape(-1), g.reshape(-1, table.data.shape[1]))
        return acc

    return Tensor(table.data[idx], op="gather_rows", parents=(table,), vjps=(vjp,))


def take_position(x: Tensor, pos: int) -> Tensor:
    """Select x[:, pos, :] from a rank-3 tensor."""
    if x.data.ndim != 3:
        raise ShapeError(f"take_position: rank 3 required, got {x.data.shape}")
    if not 0 <= pos < x.data.shape[1]:
        raise ShapeError(f"take_position: position {pos} out of range for {x.data.shape}")

    def vjp(g):
        acc = np.zeros_like(x.data)
        acc[:, pos, :] = g
        return acc

    return Tensor(x.data[:, pos, :], op="take_position", parents=(x,), vjps=(vjp,))


def stack(parts: list[Tensor], axis: int = 1) -> Tensor:
    shapes = {p.data.shape for p in parts}
    if len(shapes) != 1:
        raise ShapeError(f"stack: mismatched shapes {sorted(shapes)}")
    return Tensor(
        np.stack([p.data for p in parts], axis=axis),
        op="stack",
        parents=tuple(parts),
        vjps=tuple((lambda g, i=i: np.take(g, i, axis=axis)) for i in range(len(parts))),
    )


def l2_normalize(x: Tensor) -> Tensor:
    """Normalize along the last axis to unit L2 norm."""
    norm = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    norm = np.maximum(norm, 1e-30)
    y = x.data / norm

    def vjp(g):
        dot = (y * g).sum(axis=-1, keepdims=True)
        return (g - y * dot) / norm

    return Tensor(y, op="l2_normalize", parents=(x,), vjps=(vjp,))


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    m = np.max(x.data, axis=axis, keepdims=True)
    z = np.exp(x.data - m)
    s = z.sum(axis=axis, keepdims=True)
    out = m + np.log(s)
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    soft = z / s

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return soft * g

    return Tensor(out, op="logsumexp", parents=(x,), vjps=(vjp,))


def clip_unit(x: Tensor) -> Tensor:
    # Rounding guard: dots of float-normalized rows can exceed 1 by an ulp.
    return Tensor(np.clip(x.data, -1.0, 1.0), op="clip_unit", parents=(x,), vjps=(lambda g: g,))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return exp(sub(x, logsumexp(x, axis=axis, keepdims=True)))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return sub(x, logsumexp(x, axis=axis, keepdims=True))


def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Cosine between matching rows of two equally shaped arrays."""
    return clip_unit(tsum(mul(l2_normalize(a), l2_normalize(b)), axis=-1))


def cosine_matrix(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs cosine: (m, d) x (n, d) -> (m, n)."""
    return clip_unit(matmul(l2_normalize(a), transpose(l2_normalize(b))))


def _topo(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    work: list[tuple[Tensor, bool]] = [(root, False)]
    while work:
        node, expanded = work.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        work.append((node, True))
        for p in node.parents:
            if p.tracked and id(p) not in seen:
                work.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into .grad over the tape."""
    if loss.data.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    order = _topo(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones(())
    for node in reversed(order):
        g = node.grad
        if g is None:
            continue
        fault = _adjoint_faults.get(node.op)
        for parent, vjp in zip(node.parents, node.vjps):
            if not parent.tracked:
                continue
            pg = vjp(g)
            if fault is not None:
                pg = pg * fault
            parent.grad = pg if parent.grad is None else parent.grad + pg


def forward_backward(graph_fn: Callable, params, inputs=None) -> tuple[float, dict[str, np.ndarray]]:
    """Evaluate graph_fn(params, inputs) and return (loss, grads per parameter).

    Parameters the loss does not depend on get zero gradients.
    """
    loss = graph_fn(params, inputs)
    if not isinstance(loss, Tensor):
        raise ShapeError("forward_backward: graph_fn must return a Tensor")
    if loss.data.shape != ():
        raise ShapeError(f"forward_backward: loss must be scalar, got shape {loss.data.shape}")
    backward(loss)
    grads = {}
    for name, tensor in params.items():
        grads[name] = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        tensor.grad = None
    return float(loss.data), grads


@dataclass
class GradCheckReport:
    name: str
    max_rel_error: float
    tolerance: float
    passed: bool


def grad_check(graph_fn, params, inputs=None, h: float = 1e-5, tol: float = 1e-5) -> list[GradCheckReport]:
    """Compare analytic gradients against central finite differences.

    Relative error per entry is |a - f| / max(|a|, |f|, 1e-8); each
    parameter gets one report with the max over its entries.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"grad_check: h={h} outside [1e-7, 1e-3]")
    _, grads = forward_backward(graph_fn, params, inputs)
    reports = []
    for name, tensor in params.items():
        analytic = grads[name]
        base = tensor.data
        worst = 0.0
        flat = base.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = graph_fn(params, inputs).item()
            flat[i] = keep - h
            down = graph_fn(params, inputs).item()
            flat[i] = keep
            fd = (up - down) / (2.0 * h)
            a = analytic.reshape(-1)[i]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
            worst = max(worst, rel)
        reports.append(GradCheckReport(name, worst, tol, worst <= tol))
    return reports
