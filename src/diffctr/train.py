"""Two-stage training orchestration.

Stage one corrupts clean records and trains the masked-field
reconstruction; stage two inherits parameters (full or a named subset)
and optimizes the click logloss, keeping the best-validation snapshot
with early stopping. Every random draw comes from a stream addressed by
(seed, purpose, epoch, step), so reruns are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _ALLOCATOR, __version__
from . import autodiff as ad
from .data import Dataset, batch_iter
from .errors import DataError, NumericError
from .losses import PretrainLossConfig, pretrain_loss, sft_loss
from .metrics import MetricReport, report_for
from .model import TRANSFER_MODES, Model, ctr_score, encode, full_vocab_logits, save_checkpoint
from .optim import adam_step
from .rng import stream
from .schedule import NoiseSchedule

TRANSFERS = (*TRANSFER_MODES, "none")
REVERSE_CHUNK = 4096  # rows sample_reverse_batch denoises at once
EVAL_CHUNK = 4096  # rows evaluate scores at once


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    pretrain_epochs: int = 3
    finetune_epochs: int = 6
    pretrain_batch: int = 96
    finetune_batch: int = 2048
    pretrain_lr: float = 1e-3
    finetune_lr: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    transfer: str = "full"
    patience: int = 2

    def __post_init__(self):
        if self.transfer not in TRANSFERS:
            raise DataError(f"unknown transfer mode '{self.transfer}'")
        if min(self.pretrain_epochs, self.finetune_epochs) < 0:
            raise DataError("epoch counts must be >= 0")
        if self.finetune_batch < 1:
            raise DataError("finetune_batch must be >= 1")
        if self.pretrain_batch < 2:
            raise DataError("pretrain_batch must be >= 2: in-batch negatives need two rows")
        if self.patience < 1:
            raise DataError("patience must be >= 1")
        if not all(v > 0 for v in (self.pretrain_lr, self.finetune_lr, self.adam_eps)):
            raise DataError("pretrain_lr, finetune_lr and adam_eps must be > 0")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise DataError("adam_beta1 and adam_beta2 must lie in [0, 1)")


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    validation: MetricReport | None = None


@dataclass
class RunReport:
    epochs: list[EpochLog] = field(default_factory=list)
    validation: MetricReport | None = None  # of the returned snapshot
    test: MetricReport | None = None
    diverged: bool = False


def _build_fingerprint() -> dict:  # perfbench records it with its machine fingerprint
    return {"package": __version__, "numpy": np.__version__, "allocator": _ALLOCATOR}


def evaluate(model: Model, dataset: Dataset, split: str) -> MetricReport:
    """Chunked CTR scoring of a whole split."""
    tokens = dataset.token_matrix()
    scores = np.empty(len(tokens))
    for start in range(0, len(tokens), EVAL_CHUNK):
        scores[start : start + EVAL_CHUNK] = ctr_score(model, tokens[start : start + EVAL_CHUNK])
    return report_for(scores, dataset, split)


def _epochs(model: Model, dataset: Dataset, cfg: RunConfig, report: RunReport, step_loss,
            epochs: int, batch: int, seed: int, lr: float, min_rows: int = 1):
    """One Adam step per shuffled batch of at least min_rows rows on step_loss(batch, epoch, step).

    Appends each completed epoch's log to report, then yields it. A
    non-finite loss ends the loop with report.diverged set.
    """
    for epoch in range(epochs):
        losses = []
        try:
            for step, rows in enumerate(batch_iter(dataset, batch, seed, epoch)):
                if len(rows) < min_rows:
                    continue
                loss, grads = ad.forward_backward(lambda _: step_loss(rows, epoch, step), model.params)
                adam_step(model.params, grads,
                          lr=lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2, eps=cfg.adam_eps)
                losses.append(loss)
        except NumericError:
            report.diverged = True
            return
        report.epochs.append(EpochLog(epoch=epoch, train_loss=float(np.mean(losses))))
        yield report.epochs[-1]


def pretrain(
    model: Model,
    dataset: Dataset,
    schedule: NoiseSchedule,
    cfg: RunConfig,
    loss_cfg: PretrainLossConfig | None = None,
    out_dir: str | None = None,
) -> tuple[Model, RunReport]:
    """Masked-reconstruction pretraining; saves a checkpoint per epoch.

    loss_cfg decides the objective, label mode and fixed-rate ablation
    included. Returns the model it was given, trained in place; a
    non-finite loss aborts the run and returns a copy of the last
    epoch-end parameters instead.
    """
    loss_cfg = loss_cfg or PretrainLossConfig()
    rows = len(dataset.token_matrix())
    if rows < 2:
        raise DataError(f"pretraining needs at least 2 rows; split '{dataset.split}' has {rows}")
    report = RunReport()
    last_good = model.clone()

    def step_loss(batch, epoch, step):
        rng = stream(cfg.seed, "pretrain-corrupt", epoch, step)
        return pretrain_loss(model, batch, schedule, rng, loss_cfg)

    for log in _epochs(model, dataset, cfg, report, step_loss,
                       cfg.pretrain_epochs, cfg.pretrain_batch, cfg.seed, cfg.pretrain_lr, min_rows=2):
        last_good = model.clone()
        if out_dir is not None:
            save_checkpoint(model, f"{out_dir}/pretrain_epoch{log.epoch}.dgct",
                            meta={"seed": cfg.seed, "epoch": log.epoch})
    return (last_good if report.diverged else model), report


def finetune(
    model: Model,
    train: Dataset,
    validation: Dataset,
    test: Dataset | None,
    cfg: RunConfig,
    out_dir: str | None = None,
) -> tuple[Model, RunReport]:
    """Click-logloss fine-tuning with best-validation selection.

    The initial parameters count as a candidate, so zero epochs return
    them untouched. Stops early after `patience` epochs without a
    validation AUC improvement; report.validation holds the returned
    snapshot's validation metrics. A validation or test split without
    both labels is rejected before the first step.
    """
    for split, data in (("validation", validation), ("test", test)):
        if data is not None and len(np.unique(data.labels())) < 2:
            raise DataError(f"{split} split needs at least one positive and one negative label")
    report = RunReport(validation=evaluate(model, validation, "validation"))
    best = model.clone()
    since_best = 0
    for log in _epochs(model, train, cfg, report, lambda batch, *_: sft_loss(model, batch),
                       cfg.finetune_epochs, cfg.finetune_batch, cfg.seed + 1000, cfg.finetune_lr):
        log.validation = evaluate(model, validation, "validation")
        if log.validation.auc > report.validation.auc + 1e-12:
            best, report.validation, since_best = model.clone(), log.validation, 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    model = best
    if out_dir is not None:
        save_checkpoint(model, f"{out_dir}/finetuned.dgct", meta={"seed": cfg.seed})
    if test is not None:
        report.test = evaluate(model, test, "test")
    return model, report


def sample_reverse_batch(
    model: Model,
    schedule: NoiseSchedule,
    steps: int,
    rng: np.random.Generator,
    n: int,
    conditioning: dict[int, int] | None = None,
) -> np.ndarray:
    """Ancestral denoising diagnostic: (n, P) generated token rows.

    Walks the schedule backwards on a uniform grid; a still-masked field
    unmasks between times t and s with probability (m(t)-m(s))/m(t) and
    then draws from the model's full-vocabulary conditional at its
    position. Fields left masked after the last step are forced.
    """
    if steps < 1:
        raise DataError("steps must be >= 1")
    conditioning = conditioning or {}
    P = model.num_positions
    for k, tok in conditioning.items():
        if not 0 <= k < P:
            raise DataError(f"conditioning position {k} outside [0, {P})")
        f = model.schema[k]
        if not 0 <= tok < f.vocab_size:
            raise DataError(f"conditioning token {tok} outside [0, {f.vocab_size}) for field '{f.name}'")
    out = np.empty((n, P), dtype=np.int64)
    curve = schedule.mask_probs(schedule.horizon * (1.0 - np.arange(steps + 1) / steps))
    now, later = curve[:-1], curve[1:]
    unmask_probs = np.where(now > 0, (now - later) / np.where(now > 0, now, 1.0), 1.0)
    for start in range(0, n, REVERSE_CHUNK):
        m = min(REVERSE_CHUNK, n - start)
        tokens = np.tile(model.mask_ids, (m, 1))
        for k, tok in conditioning.items():
            tokens[:, k] = tok
        for probs in unmask_probs:
            still = tokens == model.mask_ids[None, :]
            if not still.any():
                break
            unmask = still & (rng.random((m, P)) < probs[None, :])
            tokens = _fill_from_conditionals(model, tokens, unmask, rng)
        still = tokens == model.mask_ids[None, :]
        if still.any():
            tokens = _fill_from_conditionals(model, tokens, still, rng)
        out[start : start + m] = tokens
    return out


@ad.no_grad()
def _fill_from_conditionals(
    model: Model, tokens: np.ndarray, fill: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw tokens for the flagged positions from one shared encoding.

    Only rows with at least one position to fill are encoded.
    """
    active = np.flatnonzero(fill.any(axis=1))
    if active.size == 0:
        return tokens
    ctx_all = encode(model, tokens[active])
    tokens = tokens.copy()
    for k in range(model.num_positions):
        sub = np.flatnonzero(fill[active, k])
        if sub.size == 0:
            continue
        logits = full_vocab_logits(model, k, ad.take_position(ctx_all, k)).data[sub]
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        cdf = np.cumsum(z / z.sum(axis=1, keepdims=True), axis=1)
        u = rng.random(sub.size)
        tokens[active[sub], k] = np.minimum(
            (u[:, None] > cdf).sum(axis=1), model.schema[k].vocab_size - 1
        )
    return tokens

