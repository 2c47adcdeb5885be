from dataclasses import replace

import numpy as np
import pytest

import diffctr.train as tr
from diffctr import data as dd
from diffctr import losses as ls
from diffctr import model as md
from diffctr.errors import DataError, NumericError
from diffctr.rng import stream
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


class TestSampleReverse:
    def test_conditioning_on_all_fields_is_identity(self):
        train, _, _ = tiny_env()
        model = tiny_model(train, seed=15)
        schedule = build_schedule(train.num_fields, lo=0.0, hi=0.9)
        conditioning = {k: 1 for k in range(model.num_positions)}
        out = tr.sample_reverse_batch(model, schedule, steps=4, rng=stream(0, "r"), n=1,
                                      conditioning=conditioning)[0]
        assert tuple(out) == tuple([1] * model.num_positions)

    def test_one_step_draws_everything(self):
        train, _, _ = tiny_env()
        model = tiny_model(train, seed=16)
        schedule = build_schedule(train.num_fields, lo=0.0, hi=0.9)
        out = tr.sample_reverse_batch(model, schedule, steps=1, rng=stream(1, "r"), n=50)
        assert out.shape == (50, model.num_positions)
        for k, f in enumerate(model.schema):
            assert out[:, k].max() < f.vocab_size  # nothing left masked

    def test_many_steps_leave_no_masks(self):
        train, _, _ = tiny_env()
        model = tiny_model(train, seed=17)
        schedule = build_schedule(train.num_fields, lo=0.05, hi=0.9)
        out = tr.sample_reverse_batch(model, schedule, steps=16, rng=stream(2, "r"), n=64)
        for k, f in enumerate(model.schema):
            assert out[:, k].max() < f.vocab_size

    def test_conditioned_fields_never_resampled(self):
        train, _, _ = tiny_env()
        model = tiny_model(train, seed=18)
        schedule = build_schedule(train.num_fields, lo=0.0, hi=0.9)
        out = tr.sample_reverse_batch(model, schedule, steps=8, rng=stream(3, "r"),
                                      n=40, conditioning={0: 2})
        assert np.all(out[:, 0] == 2)

    @pytest.mark.parametrize("conditioning,fragment", [
        (lambda P, V: {P: 0}, r"position \d+ outside \[0, \d+\)"),
        (lambda P, V: {-1: 1}, r"position -1 outside"),
        (lambda P, V: {0: V}, r"token \d+ outside \[0, \d+\) for field 'f0'"),  # f0's mask id
        (lambda P, V: {0: -1}, r"token -1 outside"),
    ], ids=["past-last-position", "negative-position", "mask-id", "negative-token"])
    def test_conditioning_out_of_range_rejected(self, conditioning, fragment):
        train, _, _ = tiny_env()
        model = tiny_model(train, seed=18)
        schedule = build_schedule(train.num_fields, lo=0.0, hi=0.9)
        with pytest.raises(DataError, match=fragment):
            tr.sample_reverse_batch(model, schedule, steps=2, rng=stream(3, "r"), n=4,
                                    conditioning=conditioning(model.num_positions, model.schema[0].vocab_size))


def test_evaluate_matches_direct_scoring(monkeypatch):
    train, val, _ = tiny_env()
    model = tiny_model(train, seed=19)
    monkeypatch.setattr(tr, "EVAL_CHUNK", 7)  # odd chunk on purpose
    rep = tr.evaluate(model, val, "validation")
    from diffctr.metrics import report_for
    from diffctr.model import ctr_score

    direct = report_for(ctr_score(model, val.token_matrix()), val, "validation")
    assert rep.auc == direct.auc and rep.logloss == direct.logloss

