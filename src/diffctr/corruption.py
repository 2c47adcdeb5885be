"""Absorbing-mask forward corruption, plus exact small-scale oracles.

Training only ever uses the one-shot analytic jump: each field keeps its
token with probability exp(-rate) and otherwise becomes the mask token,
independently per field, with one exception: a row whose draw masks no
loss-bearing field has the eligible field with the largest mask
probability masked anyway (ties broken by the rng), so every row earns a
loss term. The rate-matrix formulation (matrix exponential
of the absorbing generator), the factorized marginal over corrupted
states, and the score-ratio identity exist here as enumeration oracles
for tests and the verification CLI; they are never on the training path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .schedule import NoiseSchedule

LABEL_MODES = ("diffuse", "drop")


@dataclass
class CorruptedBatch:
    tokens: np.ndarray  # (B, P) with mask ids in place
    masked: np.ndarray  # (B, P) bool
    mask_probs: np.ndarray  # (B, P)
    clean_tokens: np.ndarray  # (B, P)


def corrupt_batch(
    clean: np.ndarray,
    schedule: NoiseSchedule,
    rng: np.random.Generator,
    mask_ids: np.ndarray,
    label_mode: str = "diffuse",
    fixed_probs: np.ndarray | None = None,
) -> CorruptedBatch:
    """One-shot corruption of a (B, P) clean token batch; each instance
    draws its own schedule time.

    fixed_probs bypasses the schedule with one constant per-field
    probability vector in [0, 1) (the fixed-rate masking ablation).
    Every row gets at least one loss-bearing field masked: a row whose
    draw masks none has its eligible field with the largest mask
    probability forced (ties broken by the rng).
    """
    B, P = clean.shape
    if fixed_probs is not None:
        fixed = np.asarray(fixed_probs, dtype=np.float64)
        if fixed.shape != (P,):
            raise DataError(f"mask_probs has shape {fixed.shape}, expected ({P},)")
        if np.any(fixed < 0) or np.any(fixed >= 1):
            raise DataError("mask probabilities must lie in [0, 1)")
        probs = np.tile(fixed, (B, 1))
    else:
        probs = schedule.sample_mask_prob_matrix(rng, B)
    eligible = loss_positions(P, label_mode)

    draws = rng.random((B, P))  # always drawn in full so streams align across modes
    masked = (draws < probs) & eligible
    candidates = np.flatnonzero(eligible)
    for i in np.flatnonzero(~masked.any(axis=1)):
        best = probs[i, candidates].max()
        top = candidates[probs[i, candidates] == best]
        pick = top[0] if len(top) == 1 else top[rng.integers(len(top))]
        masked[i, pick] = True
    if label_mode == "drop":  # the label enters the input permanently masked
        masked[:, -1] = True

    tokens = np.where(masked, mask_ids[None, :], clean)
    return CorruptedBatch(tokens=tokens, masked=masked, mask_probs=probs, clean_tokens=clean)


def loss_positions(num_fields: int, label_mode: str) -> np.ndarray:
    """Bool mask of the positions a draw may mask, the same positions whose
    masked tokens contribute loss terms; drop excludes the label (last)."""
    if label_mode not in LABEL_MODES:
        raise DataError(f"unknown label_mode '{label_mode}'")
    eligible = np.ones(num_fields, dtype=bool)
    eligible[-1] = label_mode == "diffuse"
    return eligible


# ---------------------------------------------------------------------------
# absorbing kernel: generator, matrix exponential, closed form

@dataclass
class AbsorbingKernel:
    """(V+1) x (V+1) transition matrix; state V is the absorbing mask."""

    vocab_size: int
    matrix: np.ndarray

    def validate(self, atol: float = 1e-12) -> None:
        V, m = self.vocab_size, self.matrix
        if m.shape != (V + 1, V + 1):
            raise DataError(f"kernel shape {m.shape} != ({V + 1}, {V + 1})")
        if np.max(np.abs(m.sum(axis=1) - 1.0)) > atol:
            raise NumericError("kernel rows must sum to 1")
        if np.max(np.abs(m[V] - np.eye(V + 1)[V])) > atol:
            raise NumericError("mask row must be absorbing")
        off = m[:V, :V] - np.diag(np.diag(m[:V, :V]))
        if np.max(np.abs(off)) > atol:
            raise NumericError("off-diagonal mass may only flow to the mask column")


def absorbing_generator(vocab_size: int) -> np.ndarray:
    """Rate matrix: -1 on real-token diagonal, +1 into the mask column."""
    if vocab_size < 1:
        raise DataError("vocab_size must be >= 1")
    q = np.zeros((vocab_size + 1, vocab_size + 1))
    for i in range(vocab_size):
        q[i, i] = -1.0
        q[i, vocab_size] = 1.0
    return q


def exact_kernel(vocab_size: int, rate: float) -> AbsorbingKernel:
    """Matrix exponential of rate * generator via scaled squaring.

    Independent of the closed form below; the two must agree to 1e-10.
    """
    if rate < 0:
        raise DataError("rate must be >= 0")
    a = rate * absorbing_generator(vocab_size)
    # halve until the scaled norm is small, then a plain Taylor series converges fast
    norm = np.max(np.abs(a).sum(axis=1))
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300))))) if norm > 1.0 else 0
    a = a / (2.0**squarings)
    term = np.eye(vocab_size + 1)
    total = term.copy()
    for j in range(1, 40):
        term = term @ a / j
        total += term
        if np.max(np.abs(term)) < 1e-18:
            break
    for _ in range(squarings):
        total = total @ total
    kernel = AbsorbingKernel(vocab_size, total)
    kernel.validate(atol=1e-10)
    return kernel


def closed_kernel(vocab_size: int, rate: float) -> AbsorbingKernel:
    """Closed form: survive with exp(-rate) on the diagonal, else jump to mask."""
    if rate < 0:
        raise DataError("rate must be >= 0")
    keep = np.exp(-rate)
    m = np.zeros((vocab_size + 1, vocab_size + 1))
    for i in range(vocab_size):
        m[i, i] = keep
        m[i, vocab_size] = 1.0 - keep
    m[vocab_size, vocab_size] = 1.0
    kernel = AbsorbingKernel(vocab_size, m)
    kernel.validate()
    return kernel


# ---------------------------------------------------------------------------
# enumeration oracles over tiny explicit joints

MAX_ORACLE_FIELDS = 3
MAX_ORACLE_VOCAB = 4


def _check_oracle_size(p0: np.ndarray) -> None:
    if p0.ndim > MAX_ORACLE_FIELDS or any(v > MAX_ORACLE_VOCAB for v in p0.shape):
        raise DataError(
            f"oracle joint limited to {MAX_ORACLE_FIELDS} fields of vocab <= {MAX_ORACLE_VOCAB}"
        )
    if abs(p0.sum() - 1.0) > 1e-12 or np.any(p0 < 0):
        raise DataError("p0 must be a normalized distribution")


def joint_marginal_oracle(p0: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Exact distribution over corrupted states at the given per-field rates.

    State axes follow p0 but gain one trailing slot per axis for the mask.
    Probability of a state: product of per-field mask/survive factors times
    the p0-marginal of the surviving coordinates.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    _check_oracle_size(p0)
    rates = np.asarray(rates, dtype=np.float64)
    if rates.shape != (p0.ndim,):
        raise DataError(f"need one rate per field, got {rates.shape}")
    keep = np.exp(-rates)
    out = np.zeros(tuple(v + 1 for v in p0.shape))
    for state in itertools.product(*(range(v + 1) for v in p0.shape)):
        masked = [i for i, s in enumerate(state) if s == p0.shape[i]]
        unmasked = [i for i in range(p0.ndim) if i not in masked]
        factor = np.prod(1.0 - keep[masked]) * np.prod(keep[unmasked])
        marginal = p0.sum(axis=tuple(masked)) if masked else p0
        coords = tuple(state[i] for i in unmasked)
        out[state] = factor * (marginal[coords] if coords else float(marginal))
    return out


def chain_marginal(p0: np.ndarray, rates: np.ndarray, steps: int) -> np.ndarray:
    """Same distribution via brute-force evolution of a discretized chain.

    Each step applies the per-field closed kernel for rate/steps, so the
    path enumeration must land exactly on the one-shot marginal.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    _check_oracle_size(p0)
    rates = np.asarray(rates, dtype=np.float64)
    if steps < 1:
        raise DataError("steps must be >= 1")
    dist = np.zeros(tuple(v + 1 for v in p0.shape))
    dist[tuple(slice(0, v) for v in p0.shape)] = p0
    kernels = [closed_kernel(v, r / steps).matrix for v, r in zip(p0.shape, rates)]
    for _ in range(steps):
        for axis, k in enumerate(kernels):
            dist = np.moveaxis(np.tensordot(dist, k, axes=([axis], [0])), -1, axis)
    return dist


def simulate_chain(
    tokens: tuple[int, ...],
    vocab_sizes: tuple[int, ...],
    rates: np.ndarray,
    steps: int,
    rng: np.random.Generator,
) -> list[tuple[int, ...]]:
    """Sample one discretized forward trajectory; masking is absorbing."""
    rates = np.asarray(rates, dtype=np.float64)
    step_mask_prob = 1.0 - np.exp(-rates / steps)
    state = list(tokens)
    path = [tuple(state)]
    for _ in range(steps):
        for k, v in enumerate(vocab_sizes):
            if state[k] != v and rng.random() < step_mask_prob[k]:
                state[k] = v
        path.append(tuple(state))
    return path


@dataclass
class ScoreRatioResult:
    direct_ratio: float  # ratio of corrupted-state marginals
    product_form: float  # rate factor times the clean conditional
    rate_factor: float
    joint_conditional: float  # p0 of proposed tokens given surviving context
    naive_product: float  # per-field conditionals multiplied independently


def score_ratio_oracle(
    p0: np.ndarray,
    rates: np.ndarray,
    state: tuple[int, ...],
    proposal: dict[int, int],
) -> ScoreRatioResult:
    """Both sides of the unmasking score ratio for a tiny explicit joint.

    state uses vocab_size as the mask sentinel per field; proposal maps a
    subset of masked fields to real tokens. The direct ratio of corrupted
    marginals must equal exp-rate/(1-exp-rate) factors times the clean
    conditional of the proposed tokens given the surviving fields.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    _check_oracle_size(p0)
    rates = np.asarray(rates, dtype=np.float64)
    for k, tok in proposal.items():
        if state[k] != p0.shape[k]:
            raise DataError(f"proposal field {k} is not masked in the state")
        if not 0 <= tok < p0.shape[k]:
            raise DataError(f"proposal token {tok} out of range for field {k}")

    pt = joint_marginal_oracle(p0, rates)
    proposed = tuple(proposal.get(k, state[k]) for k in range(p0.ndim))
    if pt[state] == 0.0:
        raise NumericError("corrupted state has zero probability")
    direct = float(pt[proposed] / pt[state])

    observed = {k: state[k] for k in range(p0.ndim) if state[k] != p0.shape[k]}
    keep = np.exp(-rates)
    rate_factor = float(np.prod([keep[k] / (1.0 - keep[k]) for k in proposal]))

    def conditional(target: dict[int, int], given: dict[int, int]) -> float:
        joint = {**given, **target}
        free_joint = tuple(i for i in range(p0.ndim) if i not in joint)
        free_given = tuple(i for i in range(p0.ndim) if i not in given)
        num = p0.sum(axis=free_joint) if free_joint else p0
        den = p0.sum(axis=free_given) if free_given else p0
        num_val = num[tuple(joint[i] for i in sorted(joint))] if joint else float(num)
        den_val = den[tuple(given[i] for i in sorted(given))] if given else float(den)
        return float(num_val / den_val)

    joint_cond = conditional(dict(proposal), observed) if proposal else 1.0
    naive = 1.0
    for k, tok in proposal.items():
        naive *= conditional({k: tok}, observed)

    return ScoreRatioResult(
        direct_ratio=direct,
        product_form=rate_factor * joint_cond,
        rate_factor=rate_factor,
        joint_conditional=joint_cond,
        naive_product=rate_factor * naive,
    )
