import csv

import numpy as np

from diffctr import experiments as ex
from diffctr.losses import PretrainLossConfig
from diffctr.metrics import MetricReport
from diffctr.model import TRANSFER_MODES
from diffctr.schedule import NoiseSchedule
from diffctr.train import RunReport


def fake_report(auc):
    rep = RunReport()
    rep.test = MetricReport(split="test", n=10, auc=auc, logloss=0.5)
    return rep


def test_suite_executor_runs_cross_product_and_records_failures():
    calls = []

    def good(seed):
        calls.append(("good", seed))
        return fake_report(0.8 + 0.01 * seed)

    def bad(seed):
        raise RuntimeError("exploded")

    report = ex.run_experiment_suite({"full": good, "broken": bad}, seeds=[0, 1, 2])
    assert calls == [("good", 0), ("good", 1), ("good", 2)]
    assert len(report.values("full", "auc")) == 3
    assert len(report.failures) == 3
    assert all(cid == "broken" for cid, _, _ in report.failures)
    summary = {(cid, metric): (mean, std) for cid, metric, mean, std in report.summary()}
    assert abs(summary[("full", "auc")][0] - 0.81) < 1e-12


def test_pvalues_against_baseline():
    def runner(base):
        return lambda seed: fake_report(base + 0.001 * seed)

    report = ex.run_experiment_suite(
        {"full": runner(0.9), "weak": runner(0.6)}, seeds=[0, 1, 2, 3, 4]
    )
    pvals = dict(report.pvalues())
    assert pvals["weak"] < 0.02


def test_two_stage_run_produces_test_metrics(micro_env):
    model, report = ex.two_stage_run(micro_env, seed=0)
    assert report.test is not None
    assert 0.0 <= report.test.auc <= 1.0
    assert report.epochs and report.epochs[0].train_loss > 0


def test_two_stage_run_deterministic(micro_env):
    _, a = ex.two_stage_run(micro_env, seed=1)
    _, b = ex.two_stage_run(micro_env, seed=1)
    assert a.test.auc == b.test.auc and a.test.logloss == b.test.logloss
    assert [e.train_loss for e in a.epochs] == [e.train_loss for e in b.epochs]


def test_ablation_suite_row_set(micro_env):
    report = ex.ablation_suite(micro_env, seeds=[0])
    assert report.config_ids() == ["full", "w/o Label", "w/o Diff", "w/o Fea"]
    assert not report.failures


def test_transfer_suite_row_set(micro_env):
    report = ex.transfer_suite(micro_env, seeds=[0])
    assert report.config_ids() == list(TRANSFER_MODES)
    assert not report.failures


def test_headline_suite_rows(micro_env):
    report = ex.headline_suite(micro_env, seeds=[0])
    assert set(report.config_ids()) == {"full", "sft-scratch"}


def test_report_files_written(tmp_path, micro_env):
    report = ex.headline_suite(micro_env, seeds=[0, 1])
    paths = ex.write_report_files(report, str(tmp_path / "out"))
    names = {p.split("/")[-1] for p in paths}
    assert {"rows.csv", "summary.csv", "pvalues.csv"} <= names
    with open(tmp_path / "out" / "rows.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["config_id"] for r in rows} == {"full", "sft-scratch"}
    assert all(float(r["value"]) == float(r["value"]) for r in rows)


def record_two_stage_runs(monkeypatch):
    """Replace two_stage_run by a recorder of (seed, run_patch, schedule, loss_cfg); no training."""
    calls = []

    def fake(env, seed, run_patch=None, schedule=None):
        calls.append((seed, run_patch, schedule, env.loss_cfg))
        return None, RunReport()

    monkeypatch.setattr(ex, "two_stage_run", fake)
    return calls


def test_ablation_suite_variants(monkeypatch, micro_env):
    calls = record_two_stage_runs(monkeypatch)
    ex.ablation_suite(micro_env, seeds=[0, 1])
    s = micro_env.schedule
    shared = NoiseSchedule(curves=s.curves, horizon=s.horizon, kind=s.kind, shared=True)
    assert not s.shared and micro_env.loss_cfg == PretrainLossConfig()
    expected = []
    for schedule, loss_cfg in [(None, PretrainLossConfig()),
                               (None, PretrainLossConfig(label_mode="drop")),
                               (None, PretrainLossConfig(no_diff=True)),
                               (shared, PretrainLossConfig())]:
        expected += [(0, None, schedule, loss_cfg), (1, None, schedule, loss_cfg)]
    assert calls == expected


def test_sweep_suite_variants(monkeypatch, micro_env):
    calls = record_two_stage_runs(monkeypatch)
    report = ex.sweep_suite(micro_env, seeds=[3], horizons=(10, 1000), epoch_counts=(1, 4))
    s = micro_env.schedule
    loss_cfg = micro_env.loss_cfg
    assert calls == [
        (3, None, NoiseSchedule(curves=s.curves, horizon=10, kind=s.kind, shared=s.shared), loss_cfg),
        (3, None, NoiseSchedule(curves=s.curves, horizon=1000, kind=s.kind, shared=s.shared), loss_cfg),
        (3, {"pretrain_epochs": 1}, None, loss_cfg),
        (3, {"pretrain_epochs": 4}, None, loss_cfg),
    ]
    assert not report.failures
