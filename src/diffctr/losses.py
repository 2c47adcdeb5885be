"""Training objectives.

The pretraining loss reconstructs masked fields from the surviving ones:
for every masked position the model scores the true token against the
ground-truth tokens other batch instances carry in that field (cosine
logits, softmax over the sampled candidate set), and each term is
importance-weighted by the reciprocal of its mask probability. Logits
cover only the U <= B distinct batch tokens of a field, never the whole
vocabulary. The label field always uses its exhaustive two-way softmax.
All K loss-bearing fields run as one batched computation over
(K, B, U_max) arrays, bit-identical to scoring each field alone (see
masked_field_losses for the three rules that make it so). The fine-tune
loss is the plain click logloss through the label-masked CTR head; for
label-only masking the two coincide term by term, which
verify_label_equivalence checks numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corruption import LABEL_MODES, CorruptedBatch, corrupt_batch, loss_positions
from .errors import DataError, ShapeError
from .model import Model, field_logits, encode, label_logit_diff
from .schedule import NoiseSchedule


@dataclass(frozen=True)
class PretrainLossConfig:
    max_negatives: int = 127  # cap on in-batch negatives per masked field
    mask_prob_floor: float = 0.01  # clip keeping each term's 1/p importance weight bounded
    label_mode: str = "diffuse"
    no_diff: bool = False  # fixed-rate masking at bert_mask_rate, uniform term weights
    bert_mask_rate: float = 0.15

    def __post_init__(self):
        if self.max_negatives < 1:
            raise DataError("max_negatives must be >= 1")
        if not 0 < self.mask_prob_floor < 1:
            raise DataError("mask_prob_floor must lie in (0, 1)")
        if self.label_mode not in LABEL_MODES:
            raise DataError(f"unknown label_mode '{self.label_mode}'")
        if not 0 <= self.bert_mask_rate < 1:
            raise DataError("bert_mask_rate must lie in [0, 1)")


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


def _field_candidates(
    model: Model, k: int, clean: np.ndarray, max_negatives: int
) -> tuple[np.ndarray, ...]:
    """_candidate_mask's (columns, pos, mask) for field k; the label takes both classes.

    Checks every clean token against the field's vocabulary, so a mask id
    among the clean tokens fails with the field's name.
    """
    f = model.schema[k]
    if clean.min() < 0 or clean.max() >= f.vocab_size:
        raise ShapeError(f"masked_field_losses: candidate out of range for field '{f.name}'")
    if k == model.label_position:  # exhaustive two-way softmax
        return np.arange(f.vocab_size), clean, np.ones((len(clean), f.vocab_size), dtype=bool)
    return _candidate_mask(clean, max_negatives)


# an overflow surfaces as the op's NumericError, not a RuntimeWarning first
@np.errstate(over="ignore", invalid="ignore")
def masked_field_losses(
    model: Model, corrupted: CorruptedBatch, cfg: PretrainLossConfig
) -> tuple[Tensor, np.ndarray]:
    """Scalar pretraining loss and the detached (B, P) per-term matrix.

    The K loss-bearing fields share one tape of (K, B, U_max) arrays:
    field k's U_k candidate columns come first and the padding is gated
    by LOG_ZERO, takes no part in any sum and gets zero gradient. Three
    rules keep the result bit-identical to scoring each field alone:
    each field's cosine GEMM runs at its own width U_k, each logsumexp
    row sums exactly its U_k columns, and the total sums each field over
    B before adding the fields first to last.
    """
    B, P = corrupted.tokens.shape
    if B < 2:
        raise DataError("in-batch negatives need a batch of at least 2 instances")
    ctx_all = encode(model, corrupted.tokens)
    eligible = loss_positions(P, cfg.label_mode)
    weights = np.where(
        corrupted.masked & eligible[None, :],
        1.0 if cfg.no_diff else 1.0 / np.maximum(corrupted.mask_probs, cfg.mask_prob_floor),
        0.0,
    )
    fields = np.flatnonzero(weights.any(axis=0))
    if not fields.size:
        raise DataError("masked_field_losses: no masked field earns a loss term")

    sets = [_field_candidates(model, k, corrupted.clean_tokens[:, k], cfg.max_negatives)
            for k in fields]
    widths = np.array([len(columns) for columns, _, _ in sets])
    U = int(widths.max())
    gate = np.full((len(fields), B, U), ad.LOG_ZERO)
    onehot = np.zeros((len(fields), B, U))
    rows = []
    for i, (k, (columns, pos, mask)) in enumerate(zip(fields, sets)):
        gate[i, :, : len(columns)][mask] = 0.0
        onehot[i, np.arange(B), pos] = 1.0
        padded = np.concatenate([columns, np.full(U - len(columns), columns[0])])
        rows.append(ad.gather_rows(model.target_table(k), padded))

    ctx = ad.l2_normalize(ad.take_position(ctx_all, fields))  # (K, B, d)
    targets = ad.transpose(ad.l2_normalize(ad.stack(rows, axis=0)))  # (K, d, U)
    cosine = ad.clip_unit(ad.matmul(ctx, targets, widths=widths))
    logits = ad.smul(cosine, 1.0 / model.cfg.temperature)
    denom = ad.logsumexp(ad.add(logits, ad.const(gate)), widths=widths)
    positive = ad.tsum(ad.mul(logits, ad.const(onehot)), axis=-1)
    weighted = ad.mul(ad.sub(denom, positive), ad.const(weights[:, fields].T))  # (K, B)
    terms = np.zeros((B, P))
    terms[:, fields] = weighted.data.T
    return ad.smul(ad.tsum_rows(weighted), 1.0 / B), terms


def pretrain_loss(
    model: Model,
    tokens: np.ndarray,
    schedule: NoiseSchedule,
    rng: np.random.Generator,
    cfg: PretrainLossConfig | None = None,
) -> Tensor:
    """Corrupt a clean (B, P) token batch and score the masked-field reconstruction.

    One schedule draw per instance Monte-Carlo-estimates the integral
    over mask levels; cfg.no_diff masks every field at bert_mask_rate.
    """
    cfg = cfg or PretrainLossConfig()
    fixed = np.full(model.num_positions, cfg.bert_mask_rate) if cfg.no_diff else None
    corrupted = corrupt_batch(
        tokens, schedule, rng, model.mask_ids, label_mode=cfg.label_mode, fixed_probs=fixed
    )
    loss, _ = masked_field_losses(model, corrupted, cfg)
    return loss


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


@ad.no_grad()
def per_instance_sft_losses(model: Model, tokens: np.ndarray) -> np.ndarray:
    return _click_losses(model, tokens).data


@ad.no_grad()
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
