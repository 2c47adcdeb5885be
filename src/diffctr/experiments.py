"""Named experiment suites over multiple seeds, with consolidated reports.

Each suite is a dict of named Environments, one per variant. run_suite
executes every (variant, seed) cell independently (failures are
recorded, the suite continues), and the report aggregates mean/std per
metric plus two-sided Mann-Whitney p-values of every variant against
the baseline variant.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from .corruption import loss_positions
from .data import Dataset, make_output_dir, write_csv
from .errors import DataError
from .losses import PretrainLossConfig
from .metrics import mann_whitney_p
from .model import TRANSFER_MODES, Model, ModelConfig, load_checkpoint, save_checkpoint
from .schedule import NoiseSchedule
from .train import RunConfig, RunReport, finetune, pretrain

BASELINE = "full"


@dataclass
class SuiteRow:
    config_id: str
    seed: int
    split: str
    metric: str
    value: float


@dataclass
class SuiteReport:
    rows: list[SuiteRow] = field(default_factory=list)
    failures: list[tuple[str, int, str]] = field(default_factory=list)

    def add_report(self, config_id: str, seed: int, report: RunReport) -> None:
        for split, metrics in (("test", report.test), ("validation", report.validation)):
            if metrics is not None:
                self.rows.extend(SuiteRow(config_id, seed, split, m, v) for m, v in metrics.as_rows())

    def values(self, config_id: str, metric: str = "auc") -> list[float]:
        return [
            r.value
            for r in self.rows
            if r.config_id == config_id and r.metric == metric and r.split == "test"
        ]

    def config_ids(self) -> list[str]:
        return list(dict.fromkeys(r.config_id for r in self.rows))

    def summary(self) -> list[tuple[str, str, float, float]]:
        out = []
        for cid in self.config_ids():
            metrics = sorted({r.metric for r in self.rows if r.config_id == cid})
            for metric in metrics:
                vals = self.values(cid, metric)
                if vals:
                    out.append((cid, metric, float(np.mean(vals)), float(np.std(vals))))
        return out

    def pvalues(self) -> list[tuple[str, float]]:
        base = self.values(BASELINE)
        out = []
        for cid in self.config_ids():
            if cid == BASELINE or not base:
                continue
            other = self.values(cid)
            if other:
                out.append((cid, mann_whitney_p(base, other)))
        return out


@dataclass
class Environment:
    """Everything a suite needs to run one variant end to end."""

    train: Dataset
    validation: Dataset
    test: Dataset
    model_cfg: ModelConfig
    run_cfg: RunConfig
    schedule: NoiseSchedule
    loss_cfg: PretrainLossConfig = field(default_factory=PretrainLossConfig)

    def __post_init__(self):
        loss_positions(len(self.train.schema), self.loss_cfg.label_mode)  # some field earns a term


def _pretrained_checkpoint(env: Environment, cfg: RunConfig, path: str) -> str:
    """Initialise a model for cfg.seed, pretrain it and save it at path."""
    model = Model.init(env.model_cfg, env.train.schema, cfg.seed)
    model, _ = pretrain(model, env.train, env.schedule, cfg, env.loss_cfg)
    save_checkpoint(model, path, meta={"seed": cfg.seed})
    return path


def _two_stage(env: Environment, seed: int, tmp: str, pretrained: list) -> tuple[Model, RunReport]:
    """two_stage_run, sharing pretrainings through pretrained, a list of
    (key, checkpoint path under tmp or the exception that stopped it).

    The key is all a pretraining reads: the train split, the model,
    schedule and loss configs and the run config but its transfer mode.
    """
    cfg = replace(env.run_cfg, seed=seed)
    if cfg.transfer == "none":
        model = Model.init(env.model_cfg, env.train.schema, seed)
    else:
        key = (env.train, env.model_cfg, env.schedule, env.loss_cfg, replace(cfg, transfer="full"))
        ckpt = next((out for seen, out in pretrained if seen == key), None)
        if ckpt is None:
            try:
                ckpt = _pretrained_checkpoint(env, cfg, os.path.join(tmp, f"{len(pretrained)}.dgct"))
            except Exception as e:  # kept without its traceback, which holds the model
                ckpt = e.with_traceback(None)
            pretrained.append((key, ckpt))
        if isinstance(ckpt, Exception):
            raise ckpt
        model = load_checkpoint(ckpt, cfg.transfer, env.model_cfg, env.train.schema, seed)
    return finetune(model, env.train, env.validation, env.test, cfg)


def two_stage_run(env: Environment, seed: int) -> tuple[Model, RunReport]:
    """Pretrain (unless transfer is none), transfer, fine-tune, evaluate.

    Returns the fine-tuned model and its report (test metrics included).
    Transfer goes through the checkpoint file machinery, the same path
    the CLI takes.
    """
    with tempfile.TemporaryDirectory() as tmp:
        return _two_stage(env, seed, tmp, [])


def run_suite(variants: dict[str, Environment], seeds: list[int]) -> SuiteReport:
    """Run every (variant, seed) cell config by config, each as two_stage_run would.

    A failed cell is recorded and the suite goes on. Variants that
    differ only in their transfer mode share one pretraining per seed.
    """
    if len(seeds) < 1:
        raise DataError("need at least one seed")
    report, pretrained = SuiteReport(), []
    with tempfile.TemporaryDirectory() as tmp:
        for config_id, env in variants.items():
            for seed in seeds:
                try:
                    report.add_report(config_id, seed, _two_stage(env, seed, tmp, pretrained)[1])
                except Exception as e:  # run failure must not sink the suite
                    report.failures.append((config_id, seed, f"{type(e).__name__}: {e}"))
    return report


def transfer_suite(env: Environment) -> dict[str, Environment]:
    """The pretrained model fine-tuned under each transfer mode."""
    return {mode: replace(env, run_cfg=replace(env.run_cfg, transfer=mode)) for mode in TRANSFER_MODES}


def ablation_suite(env: Environment) -> dict[str, Environment]:
    """Rows: full, without the label, without schedule draws, unified schedule."""
    return {
        "full": env,
        "w/o Label": replace(env, loss_cfg=replace(env.loss_cfg, label_mode="drop")),
        "w/o Diff": replace(env, loss_cfg=replace(env.loss_cfg, no_diff=True)),
        "w/o Fea": replace(env, schedule=replace(env.schedule, shared=True)),
    }


def headline_suite(env: Environment) -> dict[str, Environment]:
    """Two-stage training against fine-tuning the same architecture from scratch."""
    return {"full": env, "sft-scratch": replace(env, run_cfg=replace(env.run_cfg, transfer="none"))}


SWEEP_HORIZONS = (10, 100, 500, 1000)
SWEEP_PRETRAIN_EPOCHS = (1, 2, 3, 4, 5)


def sweep_suite(env: Environment) -> dict[str, Environment]:
    """Two one-dimensional sweeps: schedule horizon, then pretrain epochs."""
    horizons = {f"T={h}": replace(env, schedule=replace(env.schedule, horizon=h)) for h in SWEEP_HORIZONS}
    return horizons | {f"epochs={e}": replace(env, run_cfg=replace(env.run_cfg, pretrain_epochs=e))
                       for e in SWEEP_PRETRAIN_EPOCHS}


SUITES = {
    "transfer": transfer_suite,
    "ablation": ablation_suite,
    "headline": headline_suite,
    "sweep": sweep_suite,
}


# ---------------------------------------------------------------------------
# report files: raw rows, mean/std summary, p-values vs the baseline

def write_report_files(report: SuiteReport, out_dir: str) -> list[str]:
    make_output_dir(out_dir)
    files = [
        ("rows.csv", ["config_id", "seed", "split", "metric", "value"],
         [[r.config_id, r.seed, r.split, r.metric, repr(r.value)] for r in report.rows]),
        ("summary.csv", ["config_id", "metric", "mean", "std"],
         [[cid, metric, repr(mean), repr(std)] for cid, metric, mean, std in report.summary()]),
    ]
    if any(cid != BASELINE for cid in report.config_ids()):
        files.append(("pvalues.csv", ["config_id", "metric", "p_value_vs_" + BASELINE],
                      [[cid, "auc", repr(p)] for cid, p in report.pvalues()]))
    if report.failures:
        files.append(("failures.csv", ["config_id", "seed", "error"],
                      [list(f) for f in report.failures]))
    for name, header, rows in files:
        write_csv(os.path.join(out_dir, name), header, rows)
    return [os.path.join(out_dir, name) for name, _, _ in files]
