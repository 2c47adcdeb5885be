"""Two-stage training orchestration.

Stage one corrupts clean records and trains the masked-field
reconstruction; stage two inherits parameters (full or a named subset)
and optimizes the click logloss, keeping the best-validation snapshot
with early stopping. Every random draw comes from a stream addressed by
(seed, purpose, epoch, step), so reruns are bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from . import autodiff as ad
from .data import Dataset, batch_iter
from .errors import DataError, NumericError
from .losses import PretrainLossConfig, pretrain_loss, sft_loss
from .metrics import MetricReport, report_for
from .model import Model, ctr_score, encode, full_vocab_logits, save_checkpoint
from .optim import adam_step, xavier_init
from .rng import stream
from .schedule import NoiseSchedule

TRANSFERS = ("full", "embeddings-only", "scoring-network-only", "none")


@dataclass
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
    label_mode: str = "diffuse"
    no_label: bool = False  # pretrain without the label field in the loss
    no_diff: bool = False  # fixed-rate masking instead of schedule draws
    bert_mask_rate: float = 0.15
    patience: int = 2

    def validate(self) -> None:
        if self.transfer not in TRANSFERS:
            raise DataError(f"unknown transfer mode '{self.transfer}'")
        if min(self.pretrain_epochs, self.finetune_epochs) < 0:
            raise DataError("epoch counts must be >= 0")
        if self.finetune_batch < 1:
            raise DataError("finetune_batch must be >= 1")
        if self.pretrain_batch < 2:
            raise DataError("pretrain_batch must be >= 2: in-batch negatives need two rows")

    def effective_label_mode(self) -> str:
        return "drop" if self.no_label else self.label_mode


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    validation: MetricReport | None = None


@dataclass
class RunReport:
    stage: str
    seed: int
    config: dict
    epochs: list[EpochLog] = field(default_factory=list)
    test: MetricReport | None = None
    wall_clock: float = 0.0
    diverged: bool = False
    build: dict = field(default_factory=dict)


def _build_fingerprint() -> dict:
    return {"package": __version__, "numpy": np.__version__}


def evaluate(model: Model, dataset: Dataset, split: str, batch: int = 4096) -> MetricReport:
    """Chunked CTR scoring of a whole split."""
    tokens = dataset.token_matrix()
    scores = np.empty(len(tokens))
    for start in range(0, len(tokens), batch):
        scores[start : start + batch] = ctr_score(model, tokens[start : start + batch])
    return report_for(scores, dataset, split)


def pretrain(
    model: Model,
    dataset: Dataset,
    schedule: NoiseSchedule,
    cfg: RunConfig,
    loss_cfg: PretrainLossConfig | None = None,
    out_dir: str | None = None,
) -> tuple[Model, RunReport]:
    """Masked-reconstruction pretraining; saves a checkpoint per epoch.

    A non-finite loss aborts the run and returns the last epoch-end
    parameters. The fixed-rate ablation masks every field independently
    at bert_mask_rate with uniform term weights.
    """
    cfg.validate()
    rows = len(dataset.token_matrix())
    if rows < 2:
        raise DataError(f"pretraining needs at least 2 rows; split '{dataset.split}' has {rows}")
    loss_cfg = loss_cfg or PretrainLossConfig()
    loss_cfg = PretrainLossConfig(
        max_negatives=loss_cfg.max_negatives,
        weight_by_mask_prob=loss_cfg.weight_by_mask_prob and not cfg.no_diff,
        mask_prob_floor=loss_cfg.mask_prob_floor,
        label_mode=cfg.effective_label_mode(),
    )
    fixed = None
    if cfg.no_diff:
        fixed = np.full(model.num_positions, cfg.bert_mask_rate)
        if cfg.effective_label_mode() == "always-mask":
            fixed[-1] = 0.0  # mask decision comes from the mode, not the rate

    report = RunReport(
        stage="pretrain", seed=cfg.seed, config=asdict(cfg), build=_build_fingerprint()
    )
    started = time.perf_counter()
    last_good = model.clone()
    for epoch in range(cfg.pretrain_epochs):
        losses = []
        try:
            for step, batch in enumerate(batch_iter(dataset, cfg.pretrain_batch, cfg.seed, epoch)):
                if len(batch) < 2:
                    continue
                rng = stream(cfg.seed, "pretrain-corrupt", epoch, step)

                def fn(params, _):
                    return pretrain_loss(model, batch, schedule, rng, loss_cfg, fixed_probs=fixed)

                loss, grads = ad.forward_backward(fn, model.params)
                adam_step(
                    model.params, grads,
                    lr=cfg.pretrain_lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2, eps=cfg.adam_eps,
                )
                losses.append(loss)
        except NumericError:
            report.diverged = True
            model = last_good
            break
        report.epochs.append(EpochLog(epoch=epoch, train_loss=float(np.mean(losses))))
        last_good = model.clone()
        if out_dir is not None:
            save_checkpoint(model, f"{out_dir}/pretrain_epoch{epoch}.dgct",
                            meta={"seed": cfg.seed, "epoch": epoch})
    report.wall_clock = time.perf_counter() - started
    return model, report


def reinit_label_head(model: Model, seed: int) -> None:
    """Fresh label scoring head, used when pretraining dropped the label."""
    name = model.schema[-1].name
    if model.cfg.tied_embeddings:
        table = model.params.get_data(f"embed/input/{name}").copy()
        table[:2] = xavier_init((2, model.cfg.embed_dim), seed, "label-head")
        model.params.set_data(f"embed/input/{name}", table)
    else:
        model.params.set_data(
            f"embed/target/{name}",
            xavier_init((2, model.cfg.embed_dim), seed, "label-head"),
        )


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
    validation AUC improvement.
    """
    cfg.validate()
    report = RunReport(
        stage="finetune", seed=cfg.seed, config=asdict(cfg), build=_build_fingerprint()
    )
    started = time.perf_counter()
    best = model.clone()
    best_auc = evaluate(model, validation, "validation").auc
    since_best = 0
    for epoch in range(cfg.finetune_epochs):
        losses = []
        try:
            for step, batch in enumerate(batch_iter(train, cfg.finetune_batch, cfg.seed + 1000, epoch)):
                def fn(params, _):
                    return sft_loss(model, batch)

                loss, grads = ad.forward_backward(fn, model.params)
                adam_step(
                    model.params, grads,
                    lr=cfg.finetune_lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2, eps=cfg.adam_eps,
                )
                losses.append(loss)
        except NumericError:
            report.diverged = True
            break
        val = evaluate(model, validation, "validation")
        report.epochs.append(EpochLog(epoch=epoch, train_loss=float(np.mean(losses)), validation=val))
        if val.auc > best_auc + 1e-12:
            best, best_auc, since_best = model.clone(), val.auc, 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    model = best
    if out_dir is not None:
        save_checkpoint(model, f"{out_dir}/finetuned.dgct", meta={"seed": cfg.seed})
    if test is not None:
        report.test = evaluate(model, test, "test")
    report.wall_clock = time.perf_counter() - started
    return model, report


def sample_reverse_batch(
    model: Model,
    schedule: NoiseSchedule,
    steps: int,
    rng: np.random.Generator,
    n: int,
    conditioning: dict[int, int] | None = None,
    chunk: int = 4096,
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
    out = np.empty((n, P), dtype=np.int64)
    curve = schedule.mask_probs(schedule.horizon * (1.0 - np.arange(steps + 1) / steps))
    now, later = curve[:-1], curve[1:]
    unmask_probs = np.where(now > 0, (now - later) / np.where(now > 0, now, 1.0), 1.0)
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
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

