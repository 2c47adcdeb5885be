import csv
import os
from dataclasses import replace

import pytest

from conftest import build_micro_env
from diffctr import autodiff as ad
from diffctr import data as dd
from diffctr import experiments as ex
from diffctr import parallel
from diffctr import train as tr
from diffctr.errors import DataError
from diffctr.losses import PretrainLossConfig
from diffctr.metrics import MetricReport
from diffctr.model import TRANSFER_MODES
from diffctr.schedule import NoiseSchedule
from diffctr.train import RunReport


def fake_report(auc):
    rep = RunReport()
    rep.test = MetricReport(split="test", n=10, auc=auc, logloss=0.5)
    return rep


def with_run(env, **run_patch):
    return replace(env, run_cfg=replace(env.run_cfg, **run_patch))


def count_pretrains(monkeypatch, error=None):
    """Count ex.pretrain calls; each runs the real pretraining, or raises error if given."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3].seed)
        if error is not None:
            raise error
        return tr.pretrain(*args, **kwargs)

    monkeypatch.setattr(ex, "pretrain", counted)
    return calls


def test_suite_executor_runs_cross_product_and_records_failures(monkeypatch, micro_env):
    calls = []
    broken = with_run(micro_env, transfer="none", patience=99)

    def fake_finetune(model, train, validation, test, cfg):
        if cfg.patience == broken.run_cfg.patience:
            raise DataError("broken variant")
        calls.append((cfg.transfer, cfg.seed))
        return model, fake_report(0.8 + 0.01 * cfg.seed)

    monkeypatch.setattr(ex, "finetune", fake_finetune)
    variants = {"full": with_run(micro_env, transfer="none"), "broken": broken}
    report = ex.run_suite(variants, seeds=[0, 1, 2])
    assert calls == [("none", 0), ("none", 1), ("none", 2)]
    assert len(report.values("full", "auc")) == 3
    assert report.failures == [("broken", seed, "DataError: broken variant") for seed in (0, 1, 2)]
    summary = {(cid, metric): (mean, std) for cid, metric, mean, std in report.summary()}
    assert abs(summary[("full", "auc")][0] - 0.81) < 1e-12


@pytest.mark.parametrize("split", ["validation", "test"])
def test_an_environment_refuses_a_split_whose_schema_differs_from_train(micro_env, split):
    """A split's token ids mean the train split's fields or nothing: other names
    or vocabularies are refused before a model reads them."""
    base = getattr(micro_env, split)
    names = [f.name for f in base.schema[:-1]]
    for schema in (dd.feature_schema([f.vocab_size for f in base.schema[:-1]], names[::-1]),
                   dd.feature_schema([f.vocab_size + 1 for f in base.schema[:-1]], names)):
        other = dd.Dataset(schema=schema, samples=base.samples, split=split)
        with pytest.raises(DataError, match=f"^the {split} split's schema differs from the train"):
            replace(micro_env, **{split: other})


def test_pvalues_against_baseline():
    report = ex.SuiteReport()
    for cid, base in (("full", 0.9), ("weak", 0.6)):
        for seed in range(5):
            report.add_report(cid, seed, fake_report(base + 0.001 * seed))
    pvals = dict(report.pvalues())
    assert pvals["weak"] < 0.02


def test_transfer_suite_pretrains_once_per_seed(monkeypatch, micro_env):
    calls = count_pretrains(monkeypatch)
    report = ex.run_suite(ex.transfer_suite(micro_env), seeds=[0, 1])
    assert calls == [0, 1]
    assert not report.failures
    assert [(r.config_id, r.seed) for r in report.rows if r.split == "test" and r.metric == "auc"] == [
        (mode, seed) for mode in TRANSFER_MODES for seed in (0, 1)
    ]


def test_variant_equal_to_the_base_shares_its_pretraining(monkeypatch, micro_env):
    calls = count_pretrains(monkeypatch)
    same = replace(micro_env, run_cfg=replace(micro_env.run_cfg))
    assert same == micro_env and same.run_cfg is not micro_env.run_cfg
    report = ex.run_suite({**ex.ablation_suite(micro_env), "same": same}, seeds=[0])
    assert calls == [0] * 4  # each ablation changes the schedule or the loss config
    assert not report.failures
    rows = {cid: [(r.split, r.metric, r.value) for r in report.rows if r.config_id == cid]
            for cid in ("full", "same")}
    assert rows["full"] and rows["full"] == rows["same"]


def test_failing_pretraining_fails_every_cell_that_shares_it(monkeypatch, micro_env):
    calls = count_pretrains(monkeypatch, error=RuntimeError("exploded"))
    variants = {**ex.transfer_suite(micro_env), "sft-scratch": with_run(micro_env, transfer="none")}
    report = ex.run_suite(variants, seeds=[0, 1])
    assert calls == [0, 1]
    assert report.failures == [
        (mode, seed, "RuntimeError: exploded") for mode in TRANSFER_MODES for seed in (0, 1)
    ]
    assert report.config_ids() == ["sft-scratch"] and len(report.values("sft-scratch")) == 2


def test_suite_validation_rows_score_the_returned_snapshot():
    env = build_micro_env(finetune_epochs=8, patience=2, finetune_lr=3e-2)
    model, run = ex.two_stage_run(env, seed=0)
    report = ex.SuiteReport()
    report.add_report("full", 0, run)
    logged = {r.metric: r.value for r in report.rows if r.split == "validation"}
    kept = tr.evaluate(model, env.validation, "validation")
    assert run.epochs[-1].validation.auc != kept.auc  # early stopping kept an earlier snapshot
    assert logged == dict(kept.as_rows())


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
    report = ex.run_suite(ex.ablation_suite(micro_env), seeds=[0])
    assert report.config_ids() == ["full", "w/o Label", "w/o Diff", "w/o Fea"]
    assert not report.failures


def test_transfer_suite_row_set(micro_env):
    report = ex.run_suite(ex.transfer_suite(micro_env), seeds=[0])
    assert report.config_ids() == list(TRANSFER_MODES)
    assert not report.failures


def test_headline_suite_rows(micro_env):
    report = ex.run_suite(ex.headline_suite(micro_env), seeds=[0])
    assert set(report.config_ids()) == {"full", "sft-scratch"}


def test_report_files_written(tmp_path, micro_env):
    report = ex.run_suite(ex.headline_suite(micro_env), seeds=[0, 1])
    paths = ex.write_report_files(report, str(tmp_path / "out"))
    names = {p.split("/")[-1] for p in paths}
    assert {"rows.csv", "summary.csv", "pvalues.csv"} <= names
    with open(tmp_path / "out" / "rows.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["config_id"] for r in rows} == {"full", "sft-scratch"}
    assert all(float(r["value"]) == float(r["value"]) for r in rows)


def test_ablation_suite_variants(micro_env):
    s = micro_env.schedule
    shared = NoiseSchedule(curves=s.curves, horizon=s.horizon, shared=True)
    assert not s.shared and micro_env.loss_cfg == PretrainLossConfig()
    assert ex.ablation_suite(micro_env) == {
        "full": micro_env,
        "w/o Label": replace(micro_env, loss_cfg=PretrainLossConfig(label_mode="drop")),
        "w/o Diff": replace(micro_env, loss_cfg=PretrainLossConfig(no_diff=True)),
        "w/o Fea": replace(micro_env, schedule=shared),
    }


def test_sweep_suite_variants(micro_env):
    s = micro_env.schedule
    variants = ex.sweep_suite(micro_env)
    assert list(variants) == ["T=10", "T=100", "T=500", "T=1000"] + [f"epochs={e}" for e in range(1, 6)]
    for horizon in (10, 100, 500, 1000):
        schedule = NoiseSchedule(curves=s.curves, horizon=horizon, shared=s.shared)
        assert variants[f"T={horizon}"] == replace(micro_env, schedule=schedule)
    for epochs in range(1, 6):
        assert variants[f"epochs={epochs}"] == with_run(micro_env, pretrain_epochs=epochs)


def test_suite_bytes_do_not_depend_on_the_cpu_count(monkeypatch, micro_env, tmp_path):
    """8-row parts cut each 32-row fine-tune batch in four (with two parts
    either order of the one addition gives the same bits), and two CPUs
    share them: the parts' gradient sums are added in part order whatever
    thread ran them, so the files are the same bytes."""
    monkeypatch.setattr(parallel, "PART_ROWS", 8)
    taped_parts, real = [], ad.join_rows

    def spy(parts, since):
        if ad.recording():
            taped_parts.append(len(parts))
        return real(parts, since)

    monkeypatch.setattr(ad, "join_rows", spy)
    written = {}
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "cpu_workers", lambda: cpus)
        report = ex.run_suite(ex.headline_suite(micro_env), seeds=[0])
        assert not report.failures
        paths = ex.write_report_files(report, str(tmp_path / f"cpus{cpus}"))
        written[cpus] = {}
        for path in paths:
            with open(path, "rb") as fh:
                written[cpus][os.path.basename(path)] = fh.read()
    assert 4 in taped_parts
    assert sorted(written[1]) == ["pvalues.csv", "rows.csv", "summary.csv"]
    assert written[1] == written[2]
