"""Training objectives.

The pretraining loss reconstructs masked fields from the surviving ones:
for every masked position the model scores the true token against the
ground-truth tokens other batch instances carry in that field (cosine
logits, softmax over the sampled candidate set), and each term is
importance-weighted by the reciprocal of its mask probability. Logits
cover only the U <= B distinct batch tokens of a field, never the whole
vocabulary. The label field always uses its exhaustive two-way softmax. The fine-tune
loss is the plain click logloss through the label-masked CTR head; for
label-only masking the two coincide term by term, which
verify_label_equivalence checks numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corruption import CorruptedBatch, corrupt_batch, loss_positions
from .errors import DataError
from .model import Model, field_logits, full_vocab_logits, encode, label_logit_diff
from .schedule import NoiseSchedule


@dataclass
class PretrainLossConfig:
    max_negatives: int = 127  # cap on in-batch negatives per masked field
    weight_by_mask_prob: bool = True  # 1/p importance weight per masked term
    mask_prob_floor: float = 0.01  # weight clip keeping 1/p bounded
    label_mode: str = "diffuse"

    def validate(self) -> None:
        if self.max_negatives < 1:
            raise DataError("max_negatives must be >= 1")
        if not 0 < self.mask_prob_floor < 1:
            raise DataError("mask_prob_floor must lie in (0, 1)")


def _candidate_mask(clean_col: np.ndarray, max_negatives: int) -> tuple[np.ndarray, ...]:
    """Per-instance candidate sets over the batch's distinct tokens.

    Returns (columns, pos, mask): the sorted distinct tokens, each row's
    positive as an index into columns, and the (B, U) mask. Row i holds
    the union of the positive with the distinct tokens other instances
    carry in this field, minus any token equal to the positive (a
    contradictory negative), truncated to max_negatives distinct
    negatives in batch order. Keeping the candidates a set matters:
    duplicate-weighted denominators bias the learned softmax away from
    the clean conditional, which breaks reverse sampling.
    """
    columns, first, pos = np.unique(clean_col, return_index=True, return_inverse=True)
    # rank of each distinct token by first appearance in the batch
    rank = np.empty(len(columns), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(columns))
    # a row whose own token ranks inside the cap reaches one rank further
    limit = max_negatives + (rank[pos] < max_negatives)
    mask = rank[None, :] < limit[:, None]
    mask[np.arange(len(pos)), pos] = True
    return columns, pos, mask


def masked_field_losses(
    model: Model, corrupted: CorruptedBatch, cfg: PretrainLossConfig
) -> tuple[Tensor, np.ndarray]:
    """Scalar pretraining loss and the detached (B, P) per-term matrix."""
    cfg.validate()
    B, P = corrupted.tokens.shape
    if B < 2:
        raise DataError("in-batch negatives need a batch of at least 2 instances")
    ctx_all = encode(model, corrupted.tokens)
    eligible = loss_positions(P, cfg.label_mode)
    weights = np.where(
        corrupted.masked & eligible[None, :],
        1.0 / np.maximum(corrupted.mask_probs, cfg.mask_prob_floor)
        if cfg.weight_by_mask_prob
        else 1.0,
        0.0,
    )

    total = None
    terms = np.zeros((B, P))
    for k in range(P):
        if not weights[:, k].any():
            continue
        clean = corrupted.clean_tokens[:, k]
        if k == model.label_position:  # exhaustive two-way softmax
            columns, pos = np.arange(model.schema[k].vocab_size), clean
            mask = np.ones((B, len(columns)), dtype=bool)
        else:
            columns, pos, mask = _candidate_mask(clean, cfg.max_negatives)
        logits = field_logits(model, k, ad.take_position(ctx_all, k), columns)
        gate = np.where(mask, 0.0, ad.LOG_ZERO)
        denom = ad.logsumexp(ad.add(logits, ad.const(gate)), axis=1)
        onehot = np.zeros((B, len(columns)))
        onehot[np.arange(B), pos] = 1.0
        positive = ad.tsum(ad.mul(logits, ad.const(onehot)), axis=1)
        ce = ad.sub(denom, positive)
        terms[:, k] = ce.data * weights[:, k]
        contrib = ad.tsum(ad.mul(ce, ad.const(weights[:, k])))
        total = contrib if total is None else ad.add(total, contrib)
    return ad.smul(total, 1.0 / B), terms


def pretrain_loss(
    model: Model,
    tokens: np.ndarray,
    schedule: NoiseSchedule,
    rng: np.random.Generator,
    cfg: PretrainLossConfig | None = None,
    fixed_probs: np.ndarray | None = None,
) -> Tensor:
    """Corrupt a clean (B, P) token batch and score the masked-field reconstruction.

    One schedule draw per instance Monte-Carlo-estimates the integral
    over mask levels; fixed_probs switches to constant-rate masking.
    """
    cfg = cfg or PretrainLossConfig()
    if len(tokens) < 2:
        raise DataError("pretrain_loss needs a batch of at least 2 instances")
    corrupted = corrupt_batch(
        tokens, schedule, rng, model.mask_ids, label_mode=cfg.label_mode, fixed_probs=fixed_probs
    )
    loss, _ = masked_field_losses(model, corrupted, cfg)
    return loss


@dataclass
class ScoreEntropyTerm:
    field_index: int
    outer_weight: float  # the leading corruption-rate slope
    h3: float  # slope * survive / (1 - survive)
    q_true: float  # full-vocabulary softmax mass on the clean token
    cross_entropy: float  # -log q_true
    total: float  # -outer * h3 * log(h3 * q_true), the integrand as written


MAX_SCORE_ENTROPY_VOCAB = 64


def score_entropy_oracle(
    model: Model,
    row: np.ndarray,
    masked_fields: tuple[int, ...],
    rate_slopes: np.ndarray,
    cum_rates: np.ndarray,
) -> list[ScoreEntropyTerm]:
    """Exact single-point evaluation of the rate-weighted entropy integrand.

    Documentation-only oracle: training uses the mask-probability form.
    row is one clean (P,) token row. Needs both the instantaneous rate
    slope and the cumulative rate per field; full-vocabulary softmax
    keeps it exact.
    """
    for f in model.schema:
        if f.vocab_size > MAX_SCORE_ENTROPY_VOCAB:
            raise DataError(
                f"score_entropy_oracle limited to vocab <= {MAX_SCORE_ENTROPY_VOCAB}"
            )
    tokens = np.array([row], dtype=np.int64)
    for k in masked_fields:
        tokens[0, k] = model.mask_ids[k]
    ctx_all = encode(model, tokens)
    out = []
    for k in masked_fields:
        slope, rate = float(rate_slopes[k]), float(cum_rates[k])
        survive = np.exp(-rate)
        h3 = slope * survive / (1.0 - survive)
        logits = full_vocab_logits(model, k, ad.take_position(ctx_all, k)).data[0]
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        q = float(probs[row[k]])
        out.append(
            ScoreEntropyTerm(
                field_index=k,
                outer_weight=slope,
                h3=h3,
                q_true=q,
                cross_entropy=-float(np.log(q)),
                total=-slope * h3 * float(np.log(h3 * q)),
            )
        )
    return out


def _click_losses(model: Model, tokens: np.ndarray) -> Tensor:
    """Per-instance click logloss softplus(-(2y - 1) * logit) as a (B,) tensor."""
    labels = tokens[:, -1]
    if np.any((labels != 0) & (labels != 1)):
        raise DataError("sft_loss: labels must be 0 or 1")
    diff = label_logit_diff(model, tokens)
    signed = ad.mul(diff, ad.const(2.0 * labels - 1.0))
    return ad.softplus(ad.smul(signed, -1.0))


def sft_loss(model: Model, tokens: np.ndarray) -> Tensor:
    """Mean click logloss of a (B, P) token batch through the label-masked scoring head."""
    return ad.tmean(_click_losses(model, tokens))


def per_instance_sft_losses(model: Model, tokens: np.ndarray) -> np.ndarray:
    return _click_losses(model, tokens).data


def verify_label_equivalence(model: Model, tokens: np.ndarray) -> float:
    """Max |label-only-masked pretraining term - fine-tune logloss term|.

    The pretraining side runs the two-way softmax route, the fine-tune
    side the sigmoid route; the two are algebraically identical.
    """
    lbl = model.label_position
    masked = tokens.copy()
    masked[:, lbl] = model.mask_ids[lbl]
    ctx = ad.take_position(encode(model, masked), lbl)
    logits = field_logits(model, lbl, ctx, np.array([0, 1]))
    log_probs = ad.log_softmax(logits, axis=1).data
    labels = tokens[:, lbl]
    softmax_route = -log_probs[np.arange(len(tokens)), labels]
    sigmoid_route = per_instance_sft_losses(model, tokens)
    return float(np.max(np.abs(softmax_route - sigmoid_route)))
