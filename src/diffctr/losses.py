"""Training objectives.

The pretraining loss reconstructs masked fields from the surviving ones:
for every masked position the model scores the true token against the
ground-truth tokens other batch instances carry in that field (cosine
logits, softmax over the sampled candidate set), and each term is
importance-weighted by the reciprocal of its mask probability. Logits
cover only the U <= B distinct batch tokens of a field, never the whole
vocabulary. The label field always uses its exhaustive two-way softmax.
All K loss-bearing fields are one tape node (autodiff.candidate_terms),
each field at its own width and bit-identical to scoring it alone. The
fine-tune loss is the plain click logloss through the label-masked CTR
head (label_logit_diff); for label-only masking the two coincide term by
term, which verify_label_equivalence checks numerically. Both losses run
a batch's rows in parts on a thread per CPU (autodiff.in_parts), each
part summing its own gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import parallel
from .autodiff import Tensor
from .corruption import LABEL_MODES, CorruptedBatch, corrupt_batch, loss_positions
from .errors import DataError, ShapeError
from .model import Model, check_batch_shape, check_tokens, encode, label_logit_diff
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
    the clean conditional, which acceptance criterion 11 measures.
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


def masked_field_losses(
    model: Model, corrupted: CorruptedBatch, cfg: PretrainLossConfig
) -> tuple[Tensor, np.ndarray]:
    """Scalar pretraining loss and the detached (B, P) per-term matrix.

    The whole batch is checked, and its candidate sets drawn, before any
    part runs. Each field's gathered candidate rows are built once, before
    the parts, which read them. ad.in_parts cuts the rows into parts of
    PRETRAIN_PART_ROWS or more; each part runs encode and one
    candidate_terms node, field k on its own (b, U_k) arrays, and
    the parts' (b, K) terms are joined. The total sums each field over B
    before adding the fields first to last, so with one part (B below
    256) loss, terms and gradients equal scoring each field on its own
    tape bit for bit. With more, the parts' gradient sums are added in
    part order, and BLAS may sum a row of a part's cosine product
    otherwise than the whole batch's: each entry within 1e-13 of one
    tape (times max(1, its array's largest magnitude)).
    """
    B, P = corrupted.tokens.shape
    if B < 2:
        raise DataError("in-batch negatives need a batch of at least 2 instances")
    check_tokens(model, corrupted.tokens)
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
    rows = [ad.gather_rows(model.target_table(k), columns)
            for k, (columns, _, _) in zip(fields, sets)]

    def part(a: int, b: int) -> Tensor:
        return ad.transpose(ad.candidate_terms(
            encode(model, corrupted.tokens[a:b]), fields, rows, [pos[a:b] for _, pos, _ in sets],
            [mask[a:b] for _, _, mask in sets], weights[a:b, fields].T,
            1.0 / model.cfg.temperature))  # (b, K)

    weighted = ad.in_parts(B, parallel.PRETRAIN_PART_ROWS, part)  # (B, K)
    terms = np.zeros((B, P))
    terms[:, fields] = weighted.data
    return ad.smul(ad.tsum_rows(ad.transpose(weighted)), 1.0 / B), terms


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


def _labels(model: Model, tokens: np.ndarray) -> np.ndarray:
    """The label column of a (B, P) token batch, each 0 or 1."""
    tokens = np.asarray(tokens)
    check_batch_shape(model, tokens)
    labels = tokens[:, -1]
    if np.any((labels != 0) & (labels != 1)):
        raise DataError("sft_loss: labels must be 0 or 1")
    return labels


def _click_losses(model: Model, tokens: np.ndarray) -> Tensor:
    """Per-instance click logloss softplus(-(2y - 1) * logit) as a (B,) tensor."""
    signs = ad.const(2.0 * _labels(model, tokens) - 1.0)
    signed = ad.mul(label_logit_diff(model, tokens), signs)
    return ad.softplus(ad.smul(signed, -1.0))


def sft_loss(model: Model, tokens: np.ndarray) -> Tensor:
    """Mean click logloss of a (B, P) token batch through the label-masked scoring head.

    label_logit_diff runs the rows in parts on a thread per CPU and joins
    them: loss and gradients are the same bits on any number of CPUs, and
    the gradients stay within the bound its docstring states of one tape
    over all rows. The batch's shape is checked first, then the labels,
    then the features.
    """
    return ad.tmean(_click_losses(model, tokens))


@ad.no_grad()
def per_instance_sft_losses(model: Model, tokens: np.ndarray) -> np.ndarray:
    return _click_losses(model, tokens).data


@ad.no_grad()
def verify_label_equivalence(model: Model, tokens: np.ndarray) -> float:
    """Max |label-only-masked pretraining term - fine-tune logloss term|.

    The pretraining side runs the training route, masked_field_losses
    (its label term is candidate_terms' two-way softmax), on the batch
    with only the label masked and uniform term weights (no_diff); the
    fine-tune side runs the sigmoid route. The two are algebraically
    identical.
    """
    lbl = model.label_position
    masked = np.zeros(tokens.shape, dtype=bool)
    masked[:, lbl] = True
    corrupted = CorruptedBatch(tokens=np.where(masked, model.mask_ids, tokens), masked=masked,
                               mask_probs=np.ones(tokens.shape), clean_tokens=tokens)
    _, terms = masked_field_losses(model, corrupted, PretrainLossConfig(no_diff=True))
    return float(np.max(np.abs(terms[:, lbl] - per_instance_sft_losses(model, tokens))))
