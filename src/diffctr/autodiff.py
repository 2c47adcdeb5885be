"""Reverse-mode differentiation over dense float64 arrays.

Every operation returns a fresh Tensor: a value (.data) and a tape node
(.node) recording its parents' nodes and one adjoint, from the output's
gradient to a tuple of one gradient per parent. The tape holds nodes,
never values. An adjoint keeps only the arrays it reads, and a shape
where a shape is all it needs, so a value lives while a name or an
adjoint refers to it: one that no adjoint reads (a sum's operands, a
bias add's input) dies during the forward. backward() walks the
recorded tape in reverse topological order, runs each adjoint once and
adds its gradients left to right, so repeated runs are bit-identical;
once a node has passed its gradient on it drops its gradient and its
adjoint, and with them the values only it read. rms_scale, attention,
ffn and candidate_terms are one node each, equal bit for bit to the
chains of ops they stand for; the work their parents' gradients share
is done once, in the one adjoint. rms_scale's adjoint recomputes the
unit rows from the input instead of keeping them, and attention's the
softmax's exp(s - m); the others recompute nothing. Each adds its
biases, heads and residual, applies its relu, or clips, scales, gates
and softmaxes its logits in place, in the buffer a GEMM just made.
in_parts runs the rows of one batch in parts, each on its own tape and
thread, and join_rows joins them. A part owns the nodes it made, told
by their serials; each part sums its own gradients toward the older
nodes it reads, and the parts' sums are added in part order.

A NaN/Inf raises NumericError naming the op that produced it, instead
of letting it surface three modules later: every Tensor checks its value
when it is created, leaf, const or op, in every context, and a fused node
is the op of every value inside it. A fused node also checks each value
inside it that its next step could hide: ffn its pre-activations (its
relu maps -inf to 0), attention its scores (its softmax weighs a -inf
score 0), the projections a spread gathers from and the mixed rows a
kept row drops, and candidate_terms its cosines (its clip maps an inf to
1). Every other value inside a fused node reaches the node's output.
Values do not depend on the checks.

Numpy reports no overflow as a RuntimeWarning first: quiet sets its
error state to ignore once per context, around forward_backward's
graph_fn, ctr_score's call and each arithmetic op called outside those.
Inside no_grad() ops record no parents and no adjoint, so forward-only
callers keep no tape alive; the finiteness checks are the same with or
without a tape. The no_grad flag, quiet's flag and numpy's error state
are context variables, which every item that parallel.deal hands to a
helper thread runs in, as its caller set them.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import reduce, wraps
from itertools import count
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ShapeError
from .parallel import deal, parts

# Finite stand-in for log(0) in additive logsumexp masks. Small enough to
# vanish under exp, large enough to stay finite through any sum.
LOG_ZERO = -1e30

_adjoint_faults: dict[str, "Fault"] = {}
_serials = count()  # one counter for every Node, so a node's serial says when it was made

_recording: ContextVar[bool] = ContextVar("recording", default=True)  # false inside no_grad()
_quiet: ContextVar[bool] = ContextVar("quiet", default=False)  # true inside quiet()


@dataclass
class Fault:
    """An adjoint_fault: the scale, and whether it has scaled any node's adjoint."""

    scale: float
    ran: bool = False


@contextmanager
def adjoint_fault(op: str, scale: float):
    """Scale one op's adjoint while active. Negative control for grad checks.

    Yields the Fault, whose ran tells a control that never met the op
    from one that did.
    """
    fault = _adjoint_faults[op] = Fault(scale)
    try:
        yield fault
    finally:
        _adjoint_faults.pop(op, None)


@contextmanager
def no_grad():
    """Record no tape while active, as `with no_grad():` or `@no_grad()`.

    Nests, and restores the previous state when its body raises;
    backward() refuses to run inside it. The state is a context
    variable: a no_grad in one thread leaves taping in every other
    thread alone, and a helper started by parallel.deal inherits it.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def recording() -> bool:
    """Whether ops record a tape in this context: false inside no_grad()."""
    return _recording.get()


class Node:
    """A value's entry on the tape, without the value: its op, the nodes it
    was computed from, its adjoint vjp (the output's gradient to a tuple
    with one gradient per parent; None without a tape and once the walk
    has run it), its gradient while the walk passes it on, the value's
    shape, and its serial: a node made later has a larger one."""

    __slots__ = ("op", "parents", "vjp", "grad", "tracked", "shape", "serial")

    def __init__(self, op, parents, vjp, tracked, shape):
        self.op = op
        self.parents = parents
        self.tracked = any(p.tracked for p in parents) if tracked is None else tracked
        self.vjp = vjp
        self.grad = None
        self.shape = shape
        self.serial = next(_serials)


class Tensor:
    """A float64 array and its tape node.

    parents are the nodes (Tensor.node) the value was computed from. The
    tape holds nodes only, so a value lives while a name or an adjoint
    closure refers to its array, not while a node computed from it does.
    Making one checks its value: a NaN or an Inf raises NumericError
    naming op.
    """

    __slots__ = ("data", "node")

    def __init__(self, data, op="leaf", parents=(), vjp=None, tracked=None):
        self.data = np.asarray(data, dtype=np.float64)
        if not recording():
            parents, vjp = (), None
        self.node = Node(op, tuple(parents), vjp, tracked, self.data.shape)
        _stage(op, self.data)

    @property
    def op(self) -> str:
        return self.node.op

    @property
    def parents(self) -> tuple:
        return self.node.parents

    @property
    def vjps(self) -> tuple:
        """The node's adjoint as a 1-tuple, or () without one: perfbench's tracer rewraps it."""
        return () if self.node.vjp is None else (self.node.vjp,)

    @vjps.setter
    def vjps(self, vjps) -> None:
        (self.node.vjp,) = tuple(vjps) or (None,)

    @property
    def grad(self):
        return self.node.grad

    @grad.setter
    def grad(self, grad) -> None:
        self.node.grad = grad

    @property
    def tracked(self) -> bool:
        return self.node.tracked

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r})"


def const(data) -> Tensor:
    """Untracked constant node."""
    return Tensor(data, op="const", tracked=False)


def _stage(op: str, value: np.ndarray) -> None:
    """Raise op's NumericError if value holds a NaN or an Inf."""
    if not np.all(np.isfinite(value)):
        raise NumericError(f"op '{op}' produced non-finite values")


def _chain_fault() -> float | None:
    """The scale an active adjoint_fault on matmul sets, which attention
    applies to its GEMMs' adjoints as the per-head chain of matmul nodes
    took it; marks the fault run. It stays for perfbench's negative
    control, which faults matmul: pretraining's only taped matmul is the
    output projection, and a uniform scale there alone Adam all but
    cancels."""
    fault = _adjoint_faults.get("matmul")
    if fault is None:
        return None
    fault.ran = True
    return fault.scale


def quiet(fn: Callable) -> Callable:
    """fn under numpy's ignore error state, so an overflow raises the op's
    NumericError with no RuntimeWarning first. The state is set once per
    context: a call inside another quiet call, on its thread or on a
    helper parallel.deal started from it, costs one flag read."""

    @wraps(fn)
    def run(*args, **kwargs):
        if _quiet.get():
            return fn(*args, **kwargs)
        token = _quiet.set(True)
        try:
            with np.errstate(all="ignore"):
                return fn(*args, **kwargs)
        finally:
            _quiet.reset(token)

    return run


def _sum_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over broadcast axes so it matches `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return np.reshape(grad, shape)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """grad summed to `shape`: grad itself when the shapes agree."""
    return grad if grad.shape == shape else _sum_to(grad, shape)


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(
            f"{op}: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None


@quiet
def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    sa, sb = a.data.shape, b.data.shape
    return Tensor(
        a.data + b.data,
        op="add",
        parents=(a.node, b.node),
        vjp=lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)),
    )


@quiet
def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    sa, sb = a.data.shape, b.data.shape
    return Tensor(
        a.data - b.data,
        op="sub",
        parents=(a.node, b.node),
        vjp=lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)),
    )


@quiet
def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    x, y = a.data, b.data
    sa, sb = x.shape, y.shape
    return Tensor(
        x * y,
        op="mul",
        parents=(a.node, b.node),
        vjp=lambda g: (_unbroadcast(g * y, sa), _unbroadcast(g * x, sb)),
    )


@quiet
def smul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor(a.data * c, op="smul", parents=(a.node,), vjp=lambda g: (g * c,))


@quiet
def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b."""
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

    x, w = a.data, b.data
    if w.ndim == 2:
        # collapse any batch into one GEMM; numpy's strided batched matmul
        # is far slower than a single large multiply
        flat = x.reshape(-1, x.shape[-1])
        out = (flat @ w).reshape(x.shape[:-1] + w.shape[-1:])
        return Tensor(out, op="matmul", parents=(a.node, b.node), vjp=_gemm_vjp(x.shape, flat, w))

    sa, sb = x.shape, w.shape
    return Tensor(
        x @ w,
        op="matmul",
        parents=(a.node, b.node),
        vjp=lambda g: (_unbroadcast(g @ np.swapaxes(w, -1, -2), sa),
                       _unbroadcast(np.swapaxes(x, -1, -2) @ g, sb)),
    )


def _gemm_vjp(lead: tuple[int, ...], flat: np.ndarray, w: np.ndarray) -> Callable:
    """The adjoint of flat @ w: its gradients toward flat, reshaped to lead, and toward w."""
    n = w.shape[-1]
    return lambda g: ((g.reshape(-1, n) @ w.T).reshape(lead), flat.T @ g.reshape(-1, n))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: rank >= 2 required, got {a.data.shape}")
    return Tensor(
        np.swapaxes(a.data, -1, -2),
        op="transpose",
        parents=(a.node,),
        vjp=lambda g: (np.swapaxes(g, -1, -2),),
    )


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    out += 0.0  # np.maximum may keep a -0.0; this makes every zero +0.0 (inputs are finite)
    # out > 0 where a > 0 and nowhere else, so the adjoint keeps no array but out
    return Tensor(out, op="relu", parents=(a.node,), vjp=lambda g: (g * (out > 0),))


@quiet
def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return Tensor(out, op="exp", parents=(a.node,), vjp=lambda g: (g * out,))


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x), computed without overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    out = _logistic(a.data)
    return Tensor(out, op="sigmoid", parents=(a.node,), vjp=lambda g: (g * out * (1.0 - out),))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed without overflow; its slope is the logistic."""
    sig = _logistic(a.data)
    return Tensor(np.logaddexp(0.0, a.data), op="softplus", parents=(a.node,),
                  vjp=lambda g: (g * sig,))


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axis) -> np.ndarray:
    return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape)


@quiet
def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    shape = a.data.shape
    return Tensor(
        a.data.sum(axis=axis),
        op="sum",
        parents=(a.node,),
        vjp=lambda g: (_expand_reduced(g, shape, axis),),
    )


@quiet
def tsum_rows(a: Tensor) -> Tensor:
    """Scalar sum of a rank-2 tensor: each row summed on its own, then the
    row sums added first to last.

    The fixed grouping equals a running total of per-row sums bit for bit,
    which a plain sum over every entry does not.
    """
    shape = a.data.shape
    if len(shape) != 2 or shape[0] == 0:
        raise ShapeError(f"tsum_rows: non-empty rank 2 required, got {shape}")
    rows = np.ascontiguousarray(a.data).sum(axis=1)
    return Tensor(
        np.add.accumulate(rows)[-1],  # accumulate adds strictly left to right
        op="sum",
        parents=(a.node,),
        vjp=lambda g: (np.broadcast_to(g, shape),),
    )


@quiet
def tmean(a: Tensor, axis: int | None = None) -> Tensor:
    shape = a.data.shape
    count = a.data.size if axis is None else shape[axis]
    return Tensor(
        a.data.mean(axis=axis),
        op="mean",
        parents=(a.node,),
        vjp=lambda g: (_expand_reduced(g, shape, axis) / count,),
    )


def gather_rows(table: Tensor, idx) -> Tensor:
    """Row lookup table[idx]; the adjoint scatter-adds back into the table."""
    shape = table.data.shape
    if len(shape) != 2:
        raise ShapeError(f"gather_rows: table must be rank 2, got {shape}")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= shape[0]):
        raise ShapeError(f"gather_rows: index out of range for table with {shape[0]} rows")
    return Tensor(
        np.take(table.data, idx, axis=0),
        op="gather_rows",
        parents=(table.node,),
        vjp=lambda g: (_scatter_rows(idx.reshape(-1), g.reshape(-1, shape[1]), shape),),
    )


def _scatter_rows(idx: np.ndarray, rows: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """A zero array of shape with each rows[j] added into its row idx[j], j first to last.

    np.bincount over flat entry indices adds each entry's weights in
    input order onto +0.0, as np.add.at(zeros, idx, rows) does, so the
    sums equal its bit for bit; it runs several times faster.
    """
    d = shape[1]
    flat = (idx[:, None] * d + np.arange(d)).reshape(-1)
    acc = np.bincount(flat, weights=rows.reshape(-1), minlength=shape[0] * d)
    return acc.astype(np.float64, copy=False).reshape(shape)  # no rows: int zeros


def take_position(x: Tensor, pos: int) -> Tensor:
    """Select x[:, pos, :] (B, d) from a rank-3 (B, P, d) tensor, as a copy, so
    the output does not keep x alive. pos is one position: a sequence or a
    slice of them is refused."""
    if x.data.ndim != 3:
        raise ShapeError(f"take_position: rank 3 required, got {x.data.shape}")
    if not isinstance(pos, (int, np.integer)) or not 0 <= pos < x.data.shape[1]:
        raise ShapeError(f"take_position: position {pos} out of range for {x.data.shape}")
    shape = x.data.shape

    def vjp(g):
        acc = np.zeros(shape)
        acc[:, pos, :] = g
        return (acc,)

    return Tensor(x.data[:, pos, :].copy(), op="take_position", parents=(x.node,), vjp=vjp)


def stack(parts: list[Tensor], axis: int = 1) -> Tensor:
    shapes = {p.data.shape for p in parts}
    if len(shapes) != 1:
        raise ShapeError(f"stack: mismatched shapes {sorted(shapes)}")
    out = np.stack([p.data for p in parts], axis=axis)
    lead = (slice(None),) * (axis % out.ndim)
    n = len(parts)  # the adjoint keeps the parts' count, not the parts
    return Tensor(
        out,
        op="stack",
        parents=tuple(p.node for p in parts),
        # each part's gradient is a view of the stacked one, not a copy
        vjp=lambda g: tuple(g[lead + (i,)] for i in range(n)),
    )


def _norms(x: np.ndarray, squares: np.ndarray | None = None) -> np.ndarray:
    """The L2 norm of each row along the last axis (kept as an axis), at least 1e-30.

    squares, when given, holds x * x already. A row whose sum of squares
    overflows is first scaled by 2**-e, e the exponent of its largest
    |x|. The scaling is exact, so its norm is what an unbounded exponent
    range would give; every other row keeps the plain square root of its
    sum of squares.
    """
    norm = np.sqrt((x * x if squares is None else squares).sum(axis=-1, keepdims=True))
    over = np.isinf(norm[..., 0])
    if over.any():
        big = x[over]
        _, e = np.frexp(np.abs(big).max(axis=-1, keepdims=True))
        small = np.ldexp(big, -e)
        norm[over] = np.ldexp(np.sqrt((small * small).sum(axis=-1, keepdims=True)), e)
    return np.maximum(norm, 1e-30)


def _unit(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x's rows along the last axis at unit L2 norm, and their norms."""
    norm = _norms(x)
    return x / norm, norm


def _unit_adjoint(y: np.ndarray, norm: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The adjoint of y, _unit's rows of norm norm, toward the rows they came from."""
    dot = (y * g).sum(axis=-1, keepdims=True)
    return (g - y * dot) / norm


@quiet
def l2_normalize(x: Tensor) -> Tensor:
    """Normalize along the last axis to unit L2 norm."""
    y, norm = _unit(x.data)
    return Tensor(y, op="l2_normalize", parents=(x.node,),
                  vjp=lambda g: (_unit_adjoint(y, norm, g),))


@quiet
def rms_scale(x: Tensor, gain: Tensor) -> Tensor:
    """x over its root mean square along the last axis, times gain (d,): one node.

    Equal bit for bit, value and adjoints, to l2_normalize, smul by
    sqrt(d) and mul by gain; the adjoint recomputes the unit rows from x
    instead of keeping them, once for both parents.
    """
    xd, gd = x.data, gain.data
    d = xd.shape[-1]
    if gd.shape != (d,):
        raise ShapeError(f"rms_scale: gain must be ({d},), got {gd.shape}")
    c = float(np.sqrt(d))
    out = xd * xd
    norm = _norms(xd, out)
    np.divide(xd, norm, out=out)  # the squares' buffer becomes the output
    out *= c
    out *= gd

    def vjp(g):
        y = xd / norm
        gy = g * gd
        gy *= c
        dot = (y * gy).sum(axis=-1, keepdims=True)
        gx = y * dot
        np.subtract(gy, gx, out=gx)
        gx /= norm
        y *= c
        y *= g  # y * g is g * y, bit for bit
        return gx, _sum_to(y, (d,))

    return Tensor(out, op="rms_scale", parents=(x.node, gain.node), vjp=vjp)


@quiet
def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """log(sum(exp(x))) along axis."""
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
        return (soft * g,)

    return Tensor(out, op="logsumexp", parents=(x.node,), vjp=vjp)


def clip_unit(x: Tensor) -> Tensor:
    # Rounding guard: dots of float-normalized rows can exceed 1 by an ulp.
    return Tensor(np.clip(x.data, -1.0, 1.0), op="clip_unit", parents=(x.node,),
                  vjp=lambda g: (g,))


@quiet
def attention(x: Tensor, h: Tensor, heads: Sequence[Sequence[Tensor]], keep: int | None = None,
              spread: np.ndarray | None = None) -> Tensor:
    """x + Σ_i softmax(q_i k_iᵀ / √dh) v_i wo_i, a block's attention and its residual: one node.

    h holds the normed rows (B, P, d) attention reads and x the residual
    rows, of h's shape. heads holds each head's (wq, wk, wv, wo): q_i,
    k_i and v_i are h @ wq_i, h @ wk_i and h @ wv_i, (d, dh) each, and
    wo_i is (dh, d). keep, a position, returns only its (B, d) rows,
    each still attending over every position. spread, (B, P) indices
    into the rows of x and h (U, d), runs the projections once per row
    and gathers them to (B, P, .) before the scores; it records no tape,
    so it is refused while one is recorded. Without a tape and with keep
    the last position, only the last two positions are queried (two, as
    a one-row product would run through BLAS gemv, which sums in another
    order; encode's docstring gives the rest).

    Equal bit for bit, value and adjoints, to the chain it stands for:
    per head, matmul(h, wq_i), matmul(h, wk_i) and matmul(h, wv_i)
    (gather_rows of each by spread, a slice of the query rows),
    matmul(q, transpose(k)), the softmax of the scores times 1/√dh as
    exp(s - logsumexp(s)), matmul(weights, v) (take_position of the kept
    row), then matmul(mixed_i, wo_i); the heads' products added first to
    last, then x (take_position or gather_rows of it). Each head runs its
    chain's arithmetic in that order. h's gradient sums each head's q, k
    and v adjoints, heads first to last, as the chain's walk does, and
    each head frees what it kept once its adjoint has run. An
    adjoint_fault on matmul scales the node's GEMM adjoints where it
    scales the chain's.
    Besides its output, the node checks each head's scores, which the
    softmax weighs 0 at -inf, the projections a spread gathers from and,
    with keep, the mixed rows the kept row's slice drops; every failure
    names attention.
    """
    xd, hd = x.data, h.data
    d = hd.shape[-1]
    weights = [tuple(w.data for w in head) for head in heads]
    dh = weights[0][0].shape[-1] if weights and len(weights[0]) == 4 else 0
    if spread is not None:
        if recording():
            raise ShapeError("attention: spread rows record no tape; call it under no_grad()")
        spread = np.asarray(spread, dtype=np.int64)
    lead = hd.shape[:-1] if spread is None else spread.shape
    if (xd.shape != hd.shape or len(lead) != 2 or hd.ndim != (3 if spread is None else 2)
            or not weights or (keep is not None and not 0 <= keep < lead[1])
            or (spread is not None and (spread.min() < 0 or spread.max() >= len(hd)))
            or any(len(w) != 4 or {w[0].shape, w[1].shape, w[2].shape} != {(d, dh)}
                   or w[3].shape != (dh, d) for w in weights)):
        raise ShapeError(f"attention: x {xd.shape}, h {hd.shape}, spread "
                         f"{None if spread is None else spread.shape}, keep {keep} and heads "
                         f"{[[w.shape for w in head] for head in weights]}")
    B, P = lead
    taped = recording()
    lo = P - 2 if keep == P - 1 and P > 1 and not taped else 0  # the first query position
    scale = float(1.0 / np.sqrt(dh))
    flat = hd.reshape(-1, d)
    query = flat if spread is not None or lo == 0 else hd[:, lo:, :].reshape(-1, d)
    kept: list = [None] * len(weights)  # what each head's adjoint reads
    products: list = [None] * len(weights)

    def forward(i: int) -> None:  # each head's temporaries die when it returns
        wq, wk, wv, wo = weights[i]
        q, k, v = query @ wq, flat @ wk, flat @ wv
        if spread is not None:  # the gathers drop the rows spread does not name
            for projected in (q, k, v):
                _stage("attention", projected)
            q, k, v = (np.take(q, spread[:, lo:], axis=0), np.take(k, spread, axis=0),
                       np.take(v, spread, axis=0))
        else:
            q, k, v = q.reshape(B, P - lo, dh), k.reshape(B, P, dh), v.reshape(B, P, dh)
        s = q @ np.swapaxes(k, -1, -2)
        _stage("attention", s)  # the softmax weighs a -inf score 0
        s *= scale
        m = np.max(s, axis=-1, keepdims=True)
        soft = np.subtract(s, m)
        np.exp(soft, out=soft)
        total = soft.sum(axis=-1, keepdims=True)
        np.subtract(s, m + np.log(total), out=soft)  # exp(s - m) and the weights share one buffer
        np.exp(soft, out=soft)
        mixed = soft @ v
        if keep is None:
            rows = mixed.reshape(-1, dh)
        else:
            _stage("attention", mixed)  # the kept row's slice drops the rest
            rows = mixed[:, keep - lo, :].copy()
        products[i] = rows @ wo
        if taped:
            kept[i] = (q, k, s, m, total, soft, v, rows)

    for i in range(len(weights)):
        forward(i)
    out = products[0]
    for product in products[1:]:
        out += product
    del products
    if spread is not None:
        residual = np.take(xd, spread if keep is None else spread[:, keep], axis=0)
    else:
        residual = xd if keep is None else xd[:, keep, :]
    np.add(residual.reshape(out.shape), out, out=out)

    def head_adjoint(i: int, g: np.ndarray, grads: list):
        """Head i's adjoints: its weights' into grads, then its q, k and v
        adjoints toward h, yielded in turn. What the head kept is freed as
        the chain's walk would free it."""
        q, k, s, m, total, soft, v, rows = kept[i]
        kept[i] = None
        wq, wk, wv, wo = weights[i]
        c = _chain_fault()  # scales each of the chain's matmul adjoints when set
        gflat = g.reshape(-1, d)
        grads[5 + 4 * i] = rows.T @ gflat
        del rows
        gmixed = gflat @ wo.T
        if keep is None:
            gmixed = gmixed.reshape(B, P, dh)
        else:
            gmixed, gm = np.zeros((B, P, dh)), gmixed
            gmixed[:, keep, :] = gm
        gs = gmixed @ np.swapaxes(v, -1, -2)
        gv = (np.swapaxes(soft, -1, -2) @ gmixed).reshape(-1, dh)
        del gmixed, v
        if c is not None:
            gs *= c
            gv *= c
        gs *= soft
        del soft
        glse = (-gs).sum(axis=-1, keepdims=True)
        recomputed = np.subtract(s, m)  # the softmax's adjoint recomputes exp(s - m)
        del s, m
        np.exp(recomputed, out=recomputed)
        recomputed /= total
        recomputed *= glse
        gs += recomputed
        gs *= scale
        del recomputed, total, glse
        gq = (gs @ k).reshape(-1, dh)
        gk = np.swapaxes(np.swapaxes(q, -1, -2) @ gs, -1, -2).reshape(-1, dh)
        del q, k, gs
        if c is not None:
            gq *= c
            gk *= c
        for n, (gp, w) in enumerate(((gq, wq), (gk, wk), (gv, wv))):
            grads[2 + 4 * i + n] = flat.T @ gp
            toward_h = gp @ w.T
            if c is not None:
                toward_h *= c
                grads[2 + 4 * i + n] *= c
            yield toward_h

    def vjp(g: np.ndarray) -> tuple:
        H = len(weights)
        grads: list = [g] + [None] * (1 + 4 * H)
        if keep is not None:
            grads[0] = np.zeros(xd.shape)
            grads[0][:, keep, :] = g
        gh = None
        for i in range(H):  # each head's adjoints toward h are added as they are made
            for toward_h in head_adjoint(i, g, grads):
                gh = toward_h if gh is None else np.add(gh, toward_h, out=gh)
        grads[1] = gh.reshape(hd.shape)
        return tuple(grads)

    return Tensor(out.reshape(lead + (d,) if keep is None else (B, d)), op="attention",
                  parents=[x.node, h.node] + [w.node for head in heads for w in head], vjp=vjp)


@quiet
def ffn(x: Tensor, h: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """x + (relu(h @ w1 + b1) @ w2 + b2), a feed-forward sublayer and its residual: one node.

    Equal bit for bit, value and adjoints, to add(x, add(matmul(relu(add(
    matmul(h, w1), b1)), w2), b2)). The forward runs the chain's two
    GEMMs; the bias, the relu and the residual go in place into the
    buffer each GEMM made. The adjoints run the chain's GEMMs and _sum_to
    calls on its shapes, with the relu mask applied in place; h's, w1's
    and b1's share the hidden gradient, computed once. Besides its output
    the node checks its pre-activations, which the relu maps to 0 at
    -inf; every failure names ffn.
    """
    xd, hd, w1d, b1d, w2d, b2d = x.data, h.data, w1.data, b1.data, w2.data, b2.data
    if (w1d.ndim != 2 or w2d.ndim != 2 or hd.shape[-1:] != w1d.shape[:1]
            or b1d.shape != w1d.shape[1:] or w2d.shape[:1] != b1d.shape
            or b2d.shape != w2d.shape[1:] or hd.shape[:-1] + b2d.shape != xd.shape):
        raise ShapeError(f"ffn: {xd.shape} + relu({hd.shape} @ {w1d.shape} + {b1d.shape}) "
                         f"@ {w2d.shape} + {b2d.shape}")
    flat = hd.reshape(-1, hd.shape[-1])
    inner = flat @ w1d
    inner += b1d
    _stage("ffn", inner)  # relu maps -inf to 0
    np.maximum(inner, 0.0, out=inner)
    inner += 0.0  # as relu: every zero +0.0
    out = inner @ w2d
    out += b2d
    np.add(xd.reshape(out.shape), out, out=out)

    first = _gemm_vjp(hd.shape, flat, w1d)
    second = _gemm_vjp(hd.shape[:-1] + b1d.shape, inner, w2d)

    def vjp(g):
        gi, gw2 = second(g)
        gi *= inner.reshape(gi.shape) > 0  # relu's adjoint: the hidden gradient
        gh, gw1 = first(gi)
        return g, gh, gw1, _unbroadcast(gi, b1d.shape), gw2, _unbroadcast(g, b2d.shape)

    return Tensor(out.reshape(xd.shape), op="ffn",
                  parents=(x.node, h.node, w1.node, b1.node, w2.node, b2.node), vjp=vjp)


@quiet
def candidate_terms(x: Tensor, fields: Sequence[int], rows: Sequence[Tensor],
                    positives: Sequence[np.ndarray], candidates: Sequence[np.ndarray],
                    weights: np.ndarray, scale: float) -> Tensor:
    """K fields' weighted candidate-softmax terms of (B, P, d) contexts x, (K, B): one node.

    Field i scores its contexts x[:, fields[i]] against its U_i target
    rows rows[i] (U_i, d): the logits are the cosines of the unit rows,
    clipped to [-1, 1], times scale. Row b's term is the logsumexp of
    its logits where candidates[i][b] (U_i,) holds, less the logit in
    column positives[i][b], times weights[i, b].

    Equal bit for bit, value and adjoints, to each field's chain
    logits = smul(clip_unit(matmul(l2_normalize(take_position(x, k)),
    transpose(l2_normalize(rows[i])))), scale), then mul(sub(logsumexp(
    add(logits, gate)), tsum(mul(logits, onehot))), w), the gate 0.0 at
    a candidate and LOG_ZERO elsewhere. Each field runs at its own width
    U_i: the clip, the scale, the gate and the softmax work in place, in
    the buffer the cosine GEMM made, the positive's logit is read by
    index, and the adjoint turns the kept softmax weights into the
    logits' gradient in place. Besides its output, the node checks each
    field's cosines, which the clip maps to 1 at inf; every failure names
    candidate_terms.
    """
    xd, scale = x.data, float(scale)
    weights = np.asarray(weights, dtype=np.float64)
    K = len(fields)
    if xd.ndim != 3 or K == 0 or len({int(k) for k in fields}) != K or not (
            len(rows) == len(positives) == len(candidates) == K) \
            or weights.shape != (K, xd.shape[0]):
        raise ShapeError(f"candidate_terms: {K} distinct fields of {xd.shape}, {len(rows)} row "
                         f"sets, {len(positives)} positives, {len(candidates)} candidate sets "
                         f"and weights {weights.shape}")
    B, P, d = xd.shape
    every = np.arange(B)
    for k, r, pos, cand in zip(fields, rows, positives, candidates):
        U = r.data.shape[0]
        if not 0 <= k < P or U == 0 or r.data.shape != (U, d) or np.shape(pos) != (B,) \
                or np.shape(cand) != (B, U) or not np.all((pos >= 0) & (pos < U)) \
                or not np.all(cand[every, pos]):
            raise ShapeError(f"candidate_terms: field {k} of {xd.shape} has rows {r.data.shape}, "
                             f"positives {np.shape(pos)} and candidates {np.shape(cand)}, "
                             "each positive a candidate")
    # a logit under 2**46 in size plus LOG_ZERO rounds to LOG_ZERO, and a row's
    # max is its positive's logit or more, so a gated entry's exp underflows to 0
    fast_exp = abs(scale) < 2.0**46
    ctx, targets = [None] * K, [None] * K  # each field's unit rows and their norms
    soft, denom, positive = [None] * K, [None] * K, [None] * K

    for i in range(K):
        (c, _), (t, _) = ctx[i], targets[i] = _unit(xd[:, fields[i], :]), _unit(rows[i].data)
        pos, cand = positives[i], candidates[i]
        z = c @ t.T
        _stage("candidate_terms", z)  # the clip maps an inf to 1
        np.clip(z, -1.0, 1.0, out=z)
        z *= scale
        positive[i] = z[every, pos]
        z += ~cand * LOG_ZERO  # the gate; a candidate's -0.0 changes no value downstream
        m = z.max(axis=1, keepdims=True)
        z -= m
        if fast_exp:  # each gated entry's exp is 0: exp runs slowly on such arguments
            z *= cand
            np.exp(z, out=z)
            z *= cand
        else:
            np.exp(z, out=z)
        total = z.sum(axis=1, keepdims=True)
        denom[i] = (m + np.log(total))[:, 0]
        z /= total
        soft[i] = z

    out = np.stack(denom)
    out -= np.stack(positive)
    out *= weights

    def vjp(g: np.ndarray) -> tuple:
        grads: list = [np.zeros((B, P, d))] + [None] * K  # x's shape: x itself may die
        gw = g * weights
        for f in range(K):
            z, gk, pos, (c, cn), (t, tn) = soft[f], gw[f], positives[f], ctx[f], targets[f]
            z *= gk[:, None]  # the softmax weights become the logits' gradient
            z[every, pos] -= gk
            z += 0.0  # every zero +0.0, as the one-hot product's sum leaves it
            z *= scale
            grads[0][:, fields[f], :] = _unit_adjoint(c, cn, z @ t)
            grads[1 + f] = _unit_adjoint(t, tn, (c.T @ z).T)
        return tuple(grads)

    return Tensor(out, op="candidate_terms", parents=[x.node] + [r.node for r in rows], vjp=vjp)


def _topo(root: Node, since: int = -1) -> list[Node]:
    """The tracked nodes root depends on, each after its parents.

    With since, a serial read before a join_rows part ran, the walk lists
    only the nodes made after it: the part's own tape, without the
    parameters and the older nodes every part reads.
    """
    order: list[Node] = []
    seen: set[int] = set()
    work: list[tuple[Node, bool]] = [(root, False)]
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
            if p.tracked and p.serial > since and id(p) not in seen:
                work.append((p, False))
    return order


def _walk(order: list[Node], since: int = -1) -> dict[Node, np.ndarray]:
    """Pass each node's .grad to its parents, from order's last node (the root) to its first.

    Each node's adjoint runs once, and each gradient it returns goes to
    its parent (or is dropped, toward an untracked one) and is let go.
    The node then drops its .grad and its adjoint, and with it the arrays
    only it read; its children came before it, so no adjoint still to
    run needs it, and it keeps op and parents, so the tape can still be
    counted. A gradient toward a node made before serial since is summed,
    in walk order, into the returned dict under that node instead of
    into its .grad.
    """
    outside: dict[Node, np.ndarray] = {}
    for node in reversed(order):
        g = node.grad
        if g is None or not node.parents:
            continue
        node.grad = None
        fault = _adjoint_faults.get(node.op)
        if fault is not None:
            fault.ran = True
        grads = list(node.vjp(g))
        for i, parent in enumerate(node.parents):
            pg, grads[i] = grads[i], None
            if not parent.tracked:
                continue
            if fault is not None:
                pg = pg * fault.scale
            if parent.serial > since:
                parent.grad = pg if parent.grad is None else parent.grad + pg
            else:
                outside[parent] = pg if parent not in outside else outside[parent] + pg
        pg = None  # the next adjoint runs without it
        node.vjp = None
    return outside


def _descend(order: list[Node], seed: np.ndarray, since: int = -1) -> dict[Node, np.ndarray]:
    """Clear the gradients of order (a _topo), seed its root's with seed and walk it (_walk)."""
    for node in order:
        node.grad = None
    order[-1].grad = seed
    return _walk(order, since)


# an overflow in an adjoint (on any thread join_rows deals to) leaves a non-finite gradient
@np.errstate(over="ignore", invalid="ignore")
def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into the leaves' .grad.

    Every other node on the tape drops its gradient and its adjoint once
    it has passed the gradient to its parents. The tape holds no values,
    only what its adjoints read, so the pass frees each value once the
    last adjoint reading it has run (a value no adjoint reads died during
    the forward), and holds only the gradients in flight and the values
    still to be read. The nodes keep op and parents, so the tape can
    still be counted, but not walked again: a second call raises.
    """
    if not recording():
        raise RuntimeError("backward: called inside no_grad(), which records no tape")
    if loss.data.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if loss.node.parents and loss.node.vjp is None:
        raise RuntimeError("backward: this tape was walked already and keeps no values")
    _descend(_topo(loss.node), np.ones(()))


def join_rows(parts: Sequence[Tensor], since: int) -> Tensor:
    """The parts' rows one after another on axis 0; each part's tape stays its own.

    A part owns the nodes made after serial since that its root reaches;
    the joined node's parents are the older nodes the parts read. Its
    adjoint runs each part's tape backward on a thread per CPU
    (parallel.deal); each part sums its adjoints toward those parents in
    its own walk, and each parent's gradient is then the parts' sums
    added in part order. The parts and the order do not depend on the
    threads, so the gradients are the same bits on any CPU count. They
    differ from one tape over all rows only in summation order; a single
    part is that tape.
    """
    data = np.concatenate([p.data for p in parts])
    if not recording():
        return Tensor(data, op="join_rows")
    tapes = [_topo(p.node, since) for p in parts]
    targets, *others = [{p: None for n in reversed(tape) for p in n.parents  # the older nodes
                         if p.tracked and p.serial < since} for tape in tapes]
    if any(r.keys() != targets.keys() for r in others):
        raise ShapeError("join_rows: the parts reach different nodes")
    bounds = np.cumsum([0] + [len(p.data) for p in parts]).tolist()

    def vjp(g: np.ndarray) -> tuple:
        sums: list = [None] * len(tapes)

        def run(k: int, _worker: int) -> None:
            sums[k] = _descend(tapes[k], g[bounds[k] : bounds[k + 1]], since)

        deal(range(len(tapes)), run)
        return tuple(reduce(np.add, [s.pop(t) for s in sums]) for t in targets)

    return Tensor(data, op="join_rows", parents=list(targets), vjp=vjp)


def in_parts(n: int, part_rows: int, part: Callable[[int, int], Tensor]) -> Tensor:
    """part(start, end) of each of parallel.parts(n, part_rows), joined by join_rows.

    The one place a batch's rows are cut, dealt and joined. The parts run
    on parallel.deal's threads, each in its caller's context, and are
    joined in row order even when there is one. A part owns the nodes it
    makes; those it reads that were built before the call (join_rows) are
    the joined node's parents.
    """
    since = next(_serials)
    cuts = parts(n, part_rows)
    out: list = [None] * len(cuts)

    def run(k: int, _worker: int) -> None:
        out[k] = part(*cuts[k])

    deal(range(len(cuts)), run)
    return join_rows(out, since)


def forward_backward(graph_fn: Callable, params) -> tuple[float, dict[str, np.ndarray]]:
    """Evaluate graph_fn(params) and return (loss, grads per parameter).

    Parameters the loss does not depend on get zero gradients. graph_fn
    runs once, under quiet: a non-finite value raises the NumericError
    of the op that produced it.
    """
    loss = quiet(graph_fn)(params)
    if not isinstance(loss, Tensor):
        raise ShapeError("forward_backward: graph_fn must return a Tensor")
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


def grad_check(graph_fn, params, h: float = 1e-5, tol: float = 1e-5) -> list[GradCheckReport]:
    """Compare analytic gradients against central finite differences.

    Relative error per entry is |a - f| / max(|a|, |f|, 1e-8, r / tol),
    where r = 8 eps max(|up|, |down|) / h is the rounding error the
    quotient f = (up - down) / 2h can carry: an entry whose true gradient
    is 0 or below r passes while a and f agree to within r. Each parameter
    gets one report with the max over its entries.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"grad_check: h={h} outside [1e-7, 1e-3]")
    _, grads = forward_backward(graph_fn, params)
    reports = []
    for name, tensor in params.items():
        analytic = grads[name]
        base = tensor.data
        worst = 0.0
        flat = base.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = graph_fn(params).item()
            flat[i] = keep - h
            down = graph_fn(params).item()
            flat[i] = keep
            fd = (up - down) / (2.0 * h)
            a = analytic.reshape(-1)[i]
            resolved = 8.0 * np.finfo(np.float64).eps * max(abs(up), abs(down)) / h
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-8, resolved / tol)
            worst = max(worst, rel)
        reports.append(GradCheckReport(name, worst, tol, worst <= tol))
    return reports
