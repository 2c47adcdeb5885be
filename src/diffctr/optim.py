"""Named parameter store, uniform fan-based initialization, and Adam.

A ParamStore keeps every parameter value and Adam's two moments in three
contiguous float64 buffers. adam_step updates them in place, block by
block, on one thread per CPU: Adam is elementwise, so every entry runs
the same operations in the same order whatever block or thread holds it,
and the result is bit-identical to stepping each parameter on its own.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .autodiff import Tensor
from .errors import DiffCtrError, NumericError, ShapeError
from .parallel import deal, threads
from .rng import stream

# Floats adam_step updates as one block. A block's data, m, v, gradient
# and two scratch arrays take 3 MB, about one core's L2 cache, and the
# default model (44k floats) fits in one block, so it starts no thread.
ADAM_BLOCK = 1 << 16


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0


class ParamStore:
    """Trainable leaf tensors by name, with Adam's moments and one step count.

    Values, first moments and second moments each live in one contiguous
    float64 buffer, parameters laid end to end in the order given. Each
    parameter's Tensor.data and AdamState m and v are reshaped views into
    those buffers, so adam_step moves every parameter in place and
    clone() is three buffer copies. Every parameter shares the store's
    step count.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        arrays = {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}
        self._starts = list(accumulate((a.size for a in arrays.values()), initial=0))
        n = self._starts.pop()
        self._data, self._m, self._v = np.empty(n), np.zeros(n), np.zeros(n)
        self.step = 0
        self._params: dict[str, Tensor] = {}
        for (name, a), start in zip(arrays.items(), self._starts):
            view = self._data[start : start + a.size].reshape(a.shape)
            view[...] = a
            self._params[name] = Tensor(view, op="param", tracked=True)

    def _cut(self, buf: np.ndarray) -> list[np.ndarray]:
        """One view of buf per parameter, shaped like its value."""
        return [buf[start : start + t.data.size].reshape(t.shape)
                for start, t in zip(self._starts, self._params.values())]

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def get_data(self, name: str) -> np.ndarray:
        return self._params[name].data

    def set_data(self, name: str, data: np.ndarray) -> None:
        """Overwrite a parameter's value before the first step; its moments stay zero.

        A store that has stepped refuses: its moments belong to the old value.
        """
        if self.step:
            raise DiffCtrError(f"set_data: the store has taken {self.step} Adam steps")
        t = self._params[name]
        data = np.asarray(data, dtype=np.float64)
        if data.shape != t.data.shape:
            raise ShapeError(
                f"set_data: parameter '{name}' has shape {t.data.shape}, got {data.shape}"
            )
        if not np.all(np.isfinite(data)):
            raise NumericError(f"set_data: parameter '{name}' is not finite")
        t.data[...] = data

    def adam_state(self, name: str) -> AdamState:
        i = self.names().index(name)
        return AdamState(self._cut(self._m)[i], self._cut(self._v)[i], self.step)

    def clone(self) -> "ParamStore":
        out = ParamStore.__new__(ParamStore)
        out._starts, out.step = self._starts, self.step
        out._data, out._m, out._v = self._data.copy(), self._m.copy(), self._v.copy()
        out._params = {name: Tensor(view, op="param", tracked=True)
                       for name, view in zip(self._params, self._cut(out._data))}
        return out


def xavier_init(shape, seed: int, *path: int | str) -> np.ndarray:
    """Uniform draw in +-sqrt(6 / (fan_in + fan_out)), deterministic in seed."""
    shape = tuple(int(s) for s in shape)
    if len(shape) < 1:
        raise ShapeError("xavier_init: shape needs at least one dimension")
    if any(s <= 0 for s in shape):
        raise ShapeError(f"xavier_init: zero-sized dimension in {shape}")
    if len(shape) == 1:
        fan_in = fan_out = shape[0]
    else:
        fan_in, fan_out = shape[0], shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    rng = stream(seed, "xavier", *path)
    return rng.uniform(-bound, bound, size=shape)


def adam_step(
    store: ParamStore,
    grads: dict[str, np.ndarray],
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> ParamStore:
    """Standard Adam with bias correction; mutates and returns the store.

    Every gradient's name and shape is checked before anything moves, so
    a rejected call leaves values, moments and the step count untouched.
    The buffers are updated in ADAM_BLOCK-float blocks dealt to one
    thread per CPU (parallel.deal); each block copies its stretch of the
    gradients into its thread's scratch array, so no full-size copy is
    made. A store no larger than one block runs on the calling thread.
    A non-finite value or moment raises NumericError naming its
    parameter; the store is then partly updated and should be dropped.
    """
    flat = []
    for name, t in store.items():
        if name not in grads:
            raise DiffCtrError(f"adam_step: missing gradient for parameter '{name}'")
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != t.data.shape:
            raise ShapeError(
                f"adam_step: gradient for '{name}' has shape {g.shape}, parameter {t.data.shape}"
            )
        flat.append(g.reshape(-1))
    store.step += 1
    c1, c2 = 1.0 - beta1**store.step, 1.0 - beta2**store.step
    n, starts = store._data.size, store._starts
    blocks = range(0, n, ADAM_BLOCK)
    size = min(n, ADAM_BLOCK)
    # made here, so the helper threads allocate nothing and the heap they
    # share with this thread is laid out alike on every run
    scratch = np.empty((threads(blocks), 3, size))

    @np.errstate(all="ignore")  # non-finite results are raised as NumericError below
    def update(start: int, worker: int) -> None:
        stop = min(start + size, n)
        g, s, u = scratch[worker, :, : stop - start]
        i = bisect_right(starts, start) - 1
        while i < len(starts) and starts[i] < stop:  # the parameters this block overlaps
            lo, hi = max(start, starts[i]), min(stop, starts[i] + flat[i].size)
            g[lo - start : hi - start] = flat[i][lo - starts[i] : hi - starts[i]]
            i += 1
        data, m, v = store._data[start:stop], store._m[start:stop], store._v[start:stop]
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=s)
        m += s
        np.multiply(g, 1.0 - beta2, out=s)
        s *= g
        v *= beta2
        v += s
        np.divide(m, c1, out=s)
        s *= lr
        np.divide(v, c2, out=u)
        np.sqrt(u, out=u)
        u += eps
        s /= u
        data -= s
        # min and max propagate NaN. A non-finite m makes the update, and
        # so data, non-finite. An infinite v alone does not: the update is
        # then 0 and the entry would never move again. v >= 0.
        if not (-np.inf < data.min() and data.max() < np.inf and v.max() < np.inf):
            bad = start + int(np.argmax(~np.isfinite(data) | ~np.isfinite(v)))
            name = store.names()[bisect_right(starts, bad) - 1]
            raise NumericError(f"adam_step: parameter '{name}' or its moments became non-finite")

    deal(blocks, update)
    return store
