"""Named experiment suites over multiple seeds, with consolidated reports.

Each suite builds a dict of named run variants, executes every
(variant, seed) cell independently (failures are recorded, the suite
continues), and aggregates mean/std per metric plus two-sided
Mann-Whitney p-values of every variant against the baseline variant.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

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
        if report.test is not None:
            for metric, value in report.test.as_rows():
                self.rows.append(SuiteRow(config_id, seed, "test", metric, value))
        if report.epochs and report.epochs[-1].validation is not None:
            for metric, value in report.epochs[-1].validation.as_rows():
                self.rows.append(SuiteRow(config_id, seed, "validation", metric, value))

    def values(self, config_id: str, metric: str = "auc") -> list[float]:
        return [
            r.value
            for r in self.rows
            if r.config_id == config_id and r.metric == metric and r.split == "test"
        ]

    def config_ids(self) -> list[str]:
        seen: list[str] = []
        for r in self.rows:
            if r.config_id not in seen:
                seen.append(r.config_id)
        return seen

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


def run_experiment_suite(
    runners: dict[str, Callable[[int], RunReport]], seeds: list[int]
) -> SuiteReport:
    """Execute the cross-product of named runners over the seeds."""
    if len(seeds) < 1:
        raise DataError("need at least one seed")
    report = SuiteReport()
    for config_id, runner in runners.items():
        for seed in seeds:
            try:
                report.add_report(config_id, seed, runner(seed))
            except Exception as e:  # run failure must not sink the suite
                report.failures.append((config_id, seed, f"{type(e).__name__}: {e}"))
    return report


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


def _pretrained_checkpoint(env: Environment, cfg: RunConfig, schedule: NoiseSchedule, tmp: str) -> str:
    """Initialise a model for cfg.seed, pretrain it and save it under tmp; returns the path."""
    model = Model.init(env.model_cfg, env.train.schema, cfg.seed)
    model, _ = pretrain(model, env.train, schedule, cfg, env.loss_cfg)
    ckpt = os.path.join(tmp, "pretrained.dgct")
    save_checkpoint(model, ckpt, meta={"seed": cfg.seed})
    return ckpt


def two_stage_run(
    env: Environment,
    seed: int,
    run_patch: dict | None = None,
    schedule: NoiseSchedule | None = None,
) -> tuple[Model, RunReport]:
    """Pretrain (unless transfer is none), transfer, fine-tune, evaluate.

    Returns the fine-tuned model and its report (test metrics included).
    Transfer goes through the checkpoint file machinery, the same path
    the CLI takes.
    """
    cfg = replace(env.run_cfg, seed=seed, **(run_patch or {}))
    cfg.validate()
    if cfg.transfer == "none":
        model = Model.init(env.model_cfg, env.train.schema, seed)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = _pretrained_checkpoint(env, cfg, schedule or env.schedule, tmp)
            model = load_checkpoint(ckpt, cfg.transfer, env.model_cfg, env.train.schema, seed)
    return finetune(model, env.train, env.validation, env.test, cfg)


def transfer_suite(env: Environment, seeds: list[int]) -> SuiteReport:
    """One pretraining per seed, fine-tuned under each transfer mode."""
    report = SuiteReport()
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                ckpt = _pretrained_checkpoint(env, replace(env.run_cfg, seed=seed), env.schedule, tmp)
            except Exception as e:
                for mode in TRANSFER_MODES:
                    report.failures.append((mode, seed, f"{type(e).__name__}: {e}"))
                continue
            for mode in TRANSFER_MODES:
                try:
                    started = load_checkpoint(ckpt, mode, env.model_cfg, env.train.schema, seed)
                    cfg = replace(env.run_cfg, seed=seed, transfer=mode)
                    _, rep = finetune(started, env.train, env.validation, env.test, cfg)
                    report.add_report(mode, seed, rep)
                except Exception as e:
                    report.failures.append((mode, seed, f"{type(e).__name__}: {e}"))
    return report


def ablation_suite(env: Environment, seeds: list[int]) -> SuiteReport:
    """Rows: full, without the label, without schedule draws, unified schedule."""
    shared_schedule = replace(env.schedule, shared=True)
    no_label = replace(env, loss_cfg=replace(env.loss_cfg, label_mode="drop"))
    no_diff = replace(env, loss_cfg=replace(env.loss_cfg, no_diff=True))
    variants: dict[str, Callable[[int], RunReport]] = {
        "full": lambda seed: two_stage_run(env, seed)[1],
        "w/o Label": lambda seed: two_stage_run(no_label, seed)[1],
        "w/o Diff": lambda seed: two_stage_run(no_diff, seed)[1],
        "w/o Fea": lambda seed: two_stage_run(env, seed, schedule=shared_schedule)[1],
    }
    return run_experiment_suite(variants, seeds)


def headline_suite(env: Environment, seeds: list[int]) -> SuiteReport:
    """Two-stage training against fine-tuning the same architecture from scratch."""
    variants: dict[str, Callable[[int], RunReport]] = {
        "full": lambda seed: two_stage_run(env, seed)[1],
        "sft-scratch": lambda seed: two_stage_run(env, seed, run_patch={"transfer": "none"})[1],
    }
    return run_experiment_suite(variants, seeds)


def sweep_suite(env: Environment, seeds: list[int],
                horizons: tuple[int, ...] = (10, 100, 500, 1000),
                epoch_counts: tuple[int, ...] = (1, 2, 3, 4, 5)) -> SuiteReport:
    """Two one-dimensional sweeps: schedule horizon, then pretrain epochs."""
    variants: dict[str, Callable[[int], RunReport]] = {}
    for horizon in horizons:
        sched = replace(env.schedule, horizon=horizon)
        variants[f"T={horizon}"] = lambda seed, s=sched: two_stage_run(env, seed, schedule=s)[1]
    for epochs in epoch_counts:
        variants[f"epochs={epochs}"] = (
            lambda seed, e=epochs: two_stage_run(env, seed, run_patch={"pretrain_epochs": e})[1]
        )
    return run_experiment_suite(variants, seeds)


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
