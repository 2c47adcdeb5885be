from dataclasses import replace

import numpy as np
import pytest

import diffctr.train as tr
from diffctr import data as dd
from diffctr import losses as ls
from diffctr import model as md
from diffctr import parallel
from diffctr.errors import NumericError
from diffctr.schedule import build_schedule
from conftest import untied


def tiny_env(samples=400, fields=3, vocab=6, seed=5):
    spec = dd.random_spec(num_fields=fields, vocab=vocab, clusters=3, samples=samples,
                          seed=seed, cross_scale=1.5, cross_density=0.15)
    ds, _ = dd.generate_synthetic(spec)
    tr_idx, va_idx, te_idx = dd.split_indices(samples, seed)
    return (
        dd.subset(ds, tr_idx, "train"),
        dd.subset(ds, va_idx, "validation"),
        dd.subset(ds, te_idx, "test"),
    )


def tiny_model(train, d=8, blocks=1, seed=0):
    cfg = md.ModelConfig(embed_dim=d, blocks=blocks, heads=2, ffn_width=16, temperature=0.1)
    return md.Model.init(cfg, train.schema, seed)


def tiny_run_cfg(**kw):
    base = dict(pretrain_epochs=1, finetune_epochs=2, pretrain_batch=16,
                finetune_batch=64, pretrain_lr=3e-3, finetune_lr=3e-3, patience=2)
    base.update(kw)
    return tr.RunConfig(**base)


def test_zero_epoch_pretrain_returns_initialization():
    train, _, _ = tiny_env()
    model = tiny_model(train)
    before = {n: model.params.get_data(n).copy() for n in model.params.names()}
    schedule = build_schedule(train.num_fields)
    out, report = tr.pretrain(model, train, schedule, tiny_run_cfg(pretrain_epochs=0))
    for n, v in before.items():
        np.testing.assert_array_equal(out.params.get_data(n), v)
    assert report.epochs == []


def test_pretrain_bit_identical_across_runs():
    train, _, _ = tiny_env()
    schedule = build_schedule(train.num_fields, lo=0.0, hi=0.9)

    def run():
        model = tiny_model(train, seed=3)
        out, rep = tr.pretrain(model, train, schedule, tiny_run_cfg(seed=4))
        return out, rep

    m1, r1 = run()
    m2, r2 = run()
    assert [e.train_loss for e in r1.epochs] == [e.train_loss for e in r2.epochs]
    for n in m1.params.names():
        np.testing.assert_array_equal(m1.params.get_data(n), m2.params.get_data(n))


def test_pretrain_loss_decreases():
    train, _, _ = tiny_env(samples=800)
    model = tiny_model(train, seed=1)
    schedule = build_schedule(train.num_fields, lo=0.0, hi=0.9)
    _, report = tr.pretrain(model, train, schedule, tiny_run_cfg(pretrain_epochs=3, seed=2))
    assert report.epochs[-1].train_loss < report.epochs[0].train_loss


def test_divergence_keeps_last_good_epoch(monkeypatch):
    train, _, _ = tiny_env()
    model = tiny_model(train, seed=7)
    schedule = build_schedule(train.num_fields)
    real = tr.pretrain_loss
    state = {"calls": 0}
    steps_per_epoch = (len(train.samples) + 15) // 16

    def flaky(*args, **kwargs):
        state["calls"] += 1
        if state["calls"] > steps_per_epoch + 2:  # partway through epoch 1
            raise NumericError("op 'exp' produced non-finite values")
        return real(*args, **kwargs)

    epoch0, _ = tr.pretrain(model.clone(), train, schedule, tiny_run_cfg(pretrain_epochs=1, seed=8))
    monkeypatch.setattr(tr, "pretrain_loss", flaky)
    out, report = tr.pretrain(model, train, schedule, tiny_run_cfg(pretrain_epochs=3, seed=8))
    assert report.diverged
    assert len(report.epochs) == 1  # only the completed epoch is logged
    for n in epoch0.params.names():
        np.testing.assert_array_equal(out.params.get_data(n), epoch0.params.get_data(n))


def test_an_overflowing_second_moment_ends_the_run_as_diverged(monkeypatch):
    """A 1e200 gradient entry squares to inf in Adam's v: that entry would
    then never move again, so the step raises and the run keeps epoch 0."""
    train, _, _ = tiny_env()
    model = tiny_model(train, seed=7)
    schedule = build_schedule(train.num_fields)
    real = tr.ad.forward_backward
    state = {"calls": 0}
    steps_per_epoch = (len(train.samples) + 15) // 16

    def overflowing(*args, **kwargs):
        state["calls"] += 1
        loss, grads = real(*args, **kwargs)
        if state["calls"] > steps_per_epoch + 2:  # partway through epoch 1
            grads["net/out_proj"][0, 0] = 1e200
        return loss, grads

    epoch0, _ = tr.pretrain(model.clone(), train, schedule, tiny_run_cfg(pretrain_epochs=1, seed=8))
    monkeypatch.setattr(tr.ad, "forward_backward", overflowing)
    out, report = tr.pretrain(model, train, schedule, tiny_run_cfg(pretrain_epochs=3, seed=8))
    assert report.diverged and len(report.epochs) == 1
    for n in epoch0.params.names():
        np.testing.assert_array_equal(out.params.get_data(n), epoch0.params.get_data(n))


def test_pretrain_skips_a_final_one_row_batch():
    train, _, _ = tiny_env()
    rows = len(train.token_matrix())
    batch = next(b for b in range(2, rows) if rows % b == 1)
    model = tiny_model(train, seed=3)
    schedule = build_schedule(train.num_fields, lo=0.0, hi=0.9)
    out, report = tr.pretrain(model, train, schedule, tiny_run_cfg(pretrain_epochs=2, pretrain_batch=batch))
    assert len(report.epochs) == 2 and not report.diverged
    for n in out.params.names():
        assert out.params.adam_state(n).step == 2 * (rows // batch), n


def test_pretrain_returns_the_model_it_was_given():
    train, _, _ = tiny_env()
    model = tiny_model(train, seed=3)
    schedule = build_schedule(train.num_fields, lo=0.0, hi=0.9)
    out, report = tr.pretrain(model, train, schedule, tiny_run_cfg(pretrain_epochs=2))
    assert out is model and len(report.epochs) == 2


@pytest.mark.parametrize("patience", [1, 2])
def test_finetune_stops_after_patience_epochs_without_a_gain(monkeypatch, patience):
    train, val, test = tiny_env()
    model = tiny_model(train, seed=9)
    before = {n: model.params.get_data(n).copy() for n in model.params.names()}
    flat = tr.evaluate(model, val, "validation")
    monkeypatch.setattr(tr, "evaluate", lambda *args, **kwargs: flat)  # validation AUC never improves
    out, report = tr.finetune(model, train, val, test,
                              tiny_run_cfg(finetune_epochs=patience + 2, patience=patience))
    assert [e.epoch for e in report.epochs] == list(range(patience))
    assert not report.diverged
    for n, v in before.items():  # the initial parameters stay the best candidate
        np.testing.assert_array_equal(out.params.get_data(n), v)


def test_finetune_divergence_keeps_best_validation_snapshot(monkeypatch):
    monkeypatch.setattr(parallel, "cpu_workers", lambda: 2)
    monkeypatch.setattr(parallel, "PART_ROWS", 16)  # each 64-row step in four parts
    train, val, test = tiny_env(samples=600)
    model = tiny_model(train, seed=11)
    run = tiny_run_cfg(finetune_epochs=3, seed=12, patience=10)
    best, best_report = tr.finetune(model.clone(), train, val, test, replace(run, finetune_epochs=1))
    assert not np.array_equal(best.params.get_data("embed/field_pos"),
                              model.params.get_data("embed/field_pos"))  # epoch 0 won
    real = tr.sft_loss
    state = {"calls": 0}
    steps_per_epoch = (len(train.samples) + 63) // 64

    def flaky(*args, **kwargs):
        state["calls"] += 1
        if state["calls"] > steps_per_epoch + 1:  # partway through epoch 1
            raise NumericError("op 'exp' produced non-finite values")
        return real(*args, **kwargs)

    monkeypatch.setattr(tr, "sft_loss", flaky)
    out, report = tr.finetune(model, train, val, test, run)
    assert report.diverged
    assert len(report.epochs) == 1
    for n in best.params.names():
        np.testing.assert_array_equal(out.params.get_data(n), best.params.get_data(n))
    assert report.test == best_report.test == tr.evaluate(out, test, "test")


def test_finetune_is_bit_identical_on_one_and_two_cpus(monkeypatch):
    monkeypatch.setattr(parallel, "PART_ROWS", 16)  # each 64-row step in four parts
    train, val, test = tiny_env(samples=600)
    model = tiny_model(train, seed=11)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "cpu_workers", lambda: cpus)
        runs.append(tr.finetune(model.clone(), train, val, test,
                                tiny_run_cfg(finetune_epochs=1, seed=12)))
    (one, one_report), (two, two_report) = runs
    assert one_report == two_report and len(one_report.epochs) == 1
    for n in one.params.names():
        assert np.array_equal(one.params.get_data(n), two.params.get_data(n)), n
    assert not np.array_equal(one.params.get_data("net/b0/ffn_w1"),
                              model.params.get_data("net/b0/ffn_w1"))


def test_finetune_zero_epochs_is_identity_and_evaluates():
    train, val, test = tiny_env()
    model = tiny_model(train, seed=9)
    before = {n: model.params.get_data(n).copy() for n in model.params.names()}
    out, report = tr.finetune(model, train, val, test, tiny_run_cfg(finetune_epochs=0))
    for n, v in before.items():
        np.testing.assert_array_equal(out.params.get_data(n), v)
    assert report.test is not None and 0 <= report.test.auc <= 1


def test_finetune_returns_best_validation_params():
    train, val, test = tiny_env(samples=600)
    model = tiny_model(train, seed=11)
    out, report = tr.finetune(
        model, train, val, test, tiny_run_cfg(finetune_epochs=4, seed=12, patience=10)
    )
    best_logged = max(e.validation.auc for e in report.epochs)
    final = tr.evaluate(out, val, "validation").auc
    assert final >= best_logged - 1e-12


@pytest.mark.parametrize("no_diff", [False, True])
@untied
def test_drop_mode_pretrain_leaves_label_head_at_init(tied, no_diff):
    """Dropping the label from pretraining hands fine-tuning an untrained label head."""
    train, _, _ = tiny_env()
    model = tiny_model(train, seed=13)
    lbl = model.label_position
    head = model.target_table(lbl).data.copy()
    schedule = build_schedule(train.num_fields, lo=0.0, hi=0.9)
    for label_mode, untouched in (("drop", True), ("diffuse", False)):
        loss_cfg = ls.PretrainLossConfig(label_mode=label_mode, no_diff=no_diff)
        out, report = tr.pretrain(model.clone(), train, schedule, tiny_run_cfg(seed=13), loss_cfg)
        assert report.epochs and not report.diverged
        assert np.array_equal(out.target_table(lbl).data, head) == untouched, label_mode


def test_evaluate_matches_direct_scoring(monkeypatch):
    train, val, _ = tiny_env()
    model = tiny_model(train, seed=19)
    monkeypatch.setattr(tr, "EVAL_CHUNK", 7)  # odd chunk on purpose
    rep = tr.evaluate(model, val, "validation")
    from diffctr.metrics import report_for
    from diffctr.model import ctr_score

    direct = report_for(ctr_score(model, val.token_matrix()), val, "validation")
    assert rep.auc == direct.auc and rep.logloss == direct.logloss

