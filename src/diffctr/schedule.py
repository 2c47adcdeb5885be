"""Per-field mask-probability schedules.

Each field k has a linear mask probability curve on t in [0, T],

  m_k(t) = lo + (hi - lo) * t / T,

with cumulative corruption rate c_k(t) = -log(1 - m_k(t)), so a field
survives to time t with probability exp(-c_k(t)).

One t is drawn per training instance and shared by every field; with
per-field (lo, hi) the resulting mask probabilities still differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

MAX_MASK_PROB = 1.0 - 1e-4  # keeps 1/m and 1/(1 - exp(-c)) finite


@dataclass(frozen=True)
class FieldCurve:
    lo: float  # mask probability at t = 0
    hi: float  # mask probability at t = T

    def validate(self) -> None:
        if not 0.0 <= self.lo < self.hi <= MAX_MASK_PROB:
            raise DataError(
                f"schedule bounds must satisfy 0 <= lo < hi <= {MAX_MASK_PROB}, got ({self.lo}, {self.hi})"
            )


@dataclass(frozen=True)
class NoiseSchedule:
    """Mask-probability schedules for the N feature fields plus the label."""

    curves: tuple[FieldCurve, ...]  # one per field, label last
    horizon: int = 500
    shared: bool = False  # one unified curve for every field

    def __post_init__(self):
        if self.horizon < 1:
            raise DataError("schedule horizon must be a positive integer")
        if not self.curves:
            raise DataError("schedule needs at least one field curve")
        for c in self.curves:
            c.validate()

    @property
    def num_fields(self) -> int:
        return len(self.curves)

    def mask_probs(self, t: float | np.ndarray) -> np.ndarray:
        """Every field's mask probability at time t: (P,), or (n, P) for n times."""
        t = np.asarray(t, dtype=np.float64)
        inside = (t >= 0.0) & (t <= self.horizon)
        if not inside.all():
            raise DataError(f"t={t[~inside].flat[0]} outside [0, {self.horizon}]")
        curves = self.curves[:1] * self.num_fields if self.shared else self.curves
        lo = np.array([c.lo for c in curves])
        hi = np.array([c.hi for c in curves])
        return lo + (hi - lo) * (t[..., None] / self.horizon)

    def sample_mask_prob_matrix(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """One t uniform in (0, T] per row, every field evaluated at it: (n, P)."""
        return self.mask_probs(self.horizon * (1.0 - rng.random(n)))


def build_schedule(
    num_fields: int,
    lo: float = 0.0,
    hi: float = 0.995,
    label_lo: float | None = None,
    label_hi: float | None = None,
    horizon: int = 500,
    shared: bool = False,
) -> NoiseSchedule:
    """Schedule over num_fields features plus the label field (last).

    The label curve may differ from the feature curve; a unified
    (shared=True) schedule ignores the label overrides.
    """
    feature = FieldCurve(lo, hi)
    label = FieldCurve(lo if label_lo is None else label_lo, hi if label_hi is None else label_hi)
    return NoiseSchedule(
        curves=tuple([feature] * num_fields + [label]),
        horizon=horizon,
        shared=shared,
    )
