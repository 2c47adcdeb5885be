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

from . import _ALLOCATOR, _BLAS_CORE, _BLAS_THREADS, _SIMD, __version__
from . import autodiff as ad
from .data import Dataset, batch_iter
from .errors import DataError, NumericError
from .losses import PretrainLossConfig, pretrain_loss, sft_loss
from .metrics import MetricReport, report_for
from .model import TRANSFER_MODES, Model, ctr_score, save_checkpoint
from .optim import adam_step
from .parallel import cpu_workers, helpers
from .rng import stream
from .schedule import NoiseSchedule

TRANSFERS = (*TRANSFER_MODES, "none")
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
        for name in ("pretrain_lr", "finetune_lr", "adam_eps"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise DataError(f"{name} must be finite and > 0, got {value}")
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
    return {"package": __version__, "numpy": np.__version__, "allocator": _ALLOCATOR,
            "blas_threads": "unpinned" if _BLAS_THREADS is None else _BLAS_THREADS,
            "blas_core": _BLAS_CORE, "simd": _SIMD, "score_workers": cpu_workers()}


@helpers()
def evaluate(model: Model, dataset: Dataset, split: str) -> MetricReport:
    """Chunked CTR scoring of a whole split. The call is one helper scope
    (parallel.helpers), so every chunk's parts share its live helpers."""
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


@helpers()
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
    epoch-end parameters instead. The call is one helper scope
    (parallel.helpers): its threads start once and are joined before it
    returns.
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
        if log.epoch + 1 < cfg.pretrain_epochs:  # no later epoch can diverge after the last
            last_good = model.clone()
        if out_dir is not None:
            save_checkpoint(model, f"{out_dir}/pretrain_epoch{log.epoch}.dgct",
                            meta={"seed": cfg.seed, "epoch": log.epoch})
    return (last_good if report.diverged else model), report


@helpers()
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
    both labels is rejected before the first step. The call is one
    helper scope (parallel.helpers), as pretrain's is.
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
