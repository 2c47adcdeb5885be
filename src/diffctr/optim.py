"""Named parameter store, uniform fan-based initialization, and Adam."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import DiffCtrError, ShapeError
from .rng import stream


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0


class ParamStore:
    """Trainable leaf tensors by name, each with its own Adam state."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._adam: dict[str, AdamState] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise DiffCtrError(f"parameter '{name}' already exists")
        t = Tensor(np.array(data, dtype=np.float64), op="param", tracked=True)
        self._params[name] = t
        self._adam[name] = AdamState(np.zeros_like(t.data), np.zeros_like(t.data))
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def get_data(self, name: str) -> np.ndarray:
        return self._params[name].data

    def set_data(self, name: str, data: np.ndarray) -> None:
        """Replace a parameter's value; resets its optimizer state."""
        old = self._params[name]
        data = np.array(data, dtype=np.float64)
        if data.shape != old.data.shape:
            raise ShapeError(
                f"set_data: parameter '{name}' has shape {old.data.shape}, got {data.shape}"
            )
        self._params[name] = Tensor(data, op="param", tracked=True)
        self._adam[name] = AdamState(np.zeros_like(data), np.zeros_like(data))

    def adam_state(self, name: str) -> AdamState:
        return self._adam[name]

    def clone(self) -> "ParamStore":
        out = ParamStore()
        for name, t in self._params.items():
            out.add(name, t.data.copy())
            st = self._adam[name]
            out._adam[name] = AdamState(st.m.copy(), st.v.copy(), st.step)
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
    """Standard Adam with bias correction; mutates and returns the store."""
    for name in store.names():
        if name not in grads:
            raise DiffCtrError(f"adam_step: missing gradient for parameter '{name}'")
        g = grads[name]
        t = store[name]
        if g.shape != t.data.shape:
            raise ShapeError(
                f"adam_step: gradient for '{name}' has shape {g.shape}, parameter {t.data.shape}"
            )
        st = store.adam_state(name)
        st.step += 1
        st.m = beta1 * st.m + (1.0 - beta1) * g
        st.v = beta2 * st.v + (1.0 - beta2) * g * g
        m_hat = st.m / (1.0 - beta1**st.step)
        v_hat = st.v / (1.0 - beta2**st.step)
        new_data = t.data - lr * m_hat / (np.sqrt(v_hat) + eps)
        store._params[name] = Tensor(new_data, op="param", tracked=True)
    return store
