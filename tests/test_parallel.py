"""The helper scope and the dealing rule: threads started once per pretrain or
finetune call, nested deals kept serial, every helper joined on every exit."""

import hashlib
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import diffctr.autodiff as ad
import diffctr.train as tr
from diffctr import data as dd
from diffctr import losses as ls
from diffctr import model as md
from diffctr import parallel
from diffctr.errors import NumericError
from diffctr.optim import adam_step
from diffctr.schedule import build_schedule


@pytest.fixture
def started(monkeypatch):
    """Every thread started while the test runs, on two CPUs."""
    threads = []

    class CountingThread(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(parallel, "cpu_workers", lambda: 2)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    return threads


def thread_of(log):
    def work(item, worker):
        log.append((item, worker, threading.get_ident()))

    return work


def test_a_deal_inside_a_dealt_item_runs_on_that_thread(started):
    seen = []

    def outer(item, worker):
        assert parallel.threads(range(4)) == 1
        parallel.deal([f"{item}.{k}" for k in range(3)], thread_of(seen))
        seen.append((item, worker, threading.get_ident()))

    parallel.deal(["a", "b"], outer)
    thread = {item: ident for item, _, ident in seen}
    assert len(started) == 1 and thread["a"] != thread["b"]
    assert all(thread[item] == thread[item.split(".")[0]] for item in thread)
    assert {(item, worker) for item, worker, _ in seen if "." in item} \
        == {(f"{i}.{k}", 0) for i in "ab" for k in range(3)}


def test_a_scope_starts_its_helpers_once_and_joins_them_on_exit(started):
    threads_before = threading.active_count()
    for _ in range(3):
        parallel.deal(range(2), thread_of([]))
    assert len(started) == 3  # outside a scope, one per call
    started.clear()
    seen = []
    with parallel.helpers():
        with parallel.helpers():  # a scope inside a scope uses the outer one's helpers
            for _ in range(5):
                parallel.deal(range(3), thread_of(seen))
        assert threading.active_count() == threads_before + 1
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == threads_before
    assert sorted((item, worker) for item, worker, _ in seen) == sorted([(0, 0), (1, 1), (2, 0)] * 5)
    assert len({ident for *_, ident in seen}) == 2


def test_a_failing_item_in_a_scope_raises_on_the_caller_and_the_helpers_are_joined(started):
    threads_before = threading.active_count()

    def work(item, _worker):
        if item >= 1:
            raise ValueError(f"item {item}")

    with pytest.raises(ValueError, match="item 1"):
        with parallel.helpers():
            parallel.deal(range(4), thread_of([]))
            parallel.deal(range(4), work)  # items 1 and 3 raise on the helper
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == threads_before


def test_heads_and_fields_on_more_threads_than_cpus_keep_their_bits(monkeypatch):
    """A pretraining step's four parts on four threads switching every
    microsecond write their terms, tapes and gradient sums into shared
    lists and dicts: every run gives the bytes of the run on one CPU."""
    monkeypatch.setattr(parallel, "PRETRAIN_PART_ROWS", 16)
    spec = dd.random_spec(num_fields=4, vocab=20, samples=64, seed=3)
    ds, _ = dd.generate_synthetic(spec)
    model = md.Model.init(md.ModelConfig(embed_dim=8, heads=2, ffn_width=16), ds.schema, 3)
    schedule = build_schedule(ds.num_fields, lo=0.0, hi=0.9)

    def run():
        value, grads = ad.forward_backward(lambda _: ls.pretrain_loss(
            model, ds.token_matrix(), schedule, np.random.default_rng(0)), model.params)
        return np.float64(value).tobytes() + b"".join(grads[k].tobytes() for k in sorted(grads))

    monkeypatch.setattr(parallel, "cpu_workers", lambda: 1)
    want = run()
    monkeypatch.setattr(parallel, "cpu_workers", lambda: 4)
    threads_before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with parallel.helpers():
            assert {run() for _ in range(10)} == {want}
        assert {run() for _ in range(3)} == {want}
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads_before


def wide_pretraining(samples=256 * 30, seed=7):
    spec = dd.random_spec(num_fields=8, vocab=50, samples=samples, seed=seed)
    ds, _ = dd.generate_synthetic(spec)
    model = md.Model.init(md.ModelConfig(), ds.schema, seed)
    cfg = tr.RunConfig(seed=seed, pretrain_epochs=1, pretrain_batch=256)
    return model, ds, build_schedule(ds.num_fields, lo=0.0, hi=0.9), cfg


def test_a_pretraining_of_dealt_steps_starts_its_helpers_once(monkeypatch, started):
    model, ds, schedule, cfg = wide_pretraining(samples=256 * 4)
    workers = []
    deal = ad.deal

    def counted(items, work):
        workers.append(parallel.threads(items))
        deal(items, work)

    monkeypatch.setattr(ad, "deal", counted)
    threads_before = threading.active_count()
    _, report = tr.pretrain(model, ds, schedule, cfg)
    assert len(report.epochs) == 1
    assert len(started) == parallel.cpu_workers() - 1 == 1
    # per step: the two parts' forward, and join_rows' adjoint
    assert workers == [2] * (4 * 2)
    assert threading.active_count() == threads_before


def test_thirty_dealt_pretraining_steps_are_bit_identical_on_one_and_two_cpus(monkeypatch):
    digests = set()
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "cpu_workers", lambda: cpus)
        model, ds, schedule, cfg = wide_pretraining()
        out, report = tr.pretrain(model, ds, schedule, cfg)
        digest = hashlib.sha256(np.float64(report.epochs[0].train_loss).tobytes())
        for name in out.params.names():
            digest.update(out.params.get_data(name).tobytes())
        digests.add(digest.hexdigest())
    assert len(digests) == 1


def test_no_thread_outlives_a_training_scoring_or_optimizer_call(monkeypatch, started):
    """With parts of 16 rows: a pretraining that diverges, a fine-tuning
    that stops early, a scoring call and an Adam step."""
    monkeypatch.setattr(parallel, "PRETRAIN_PART_ROWS", 16)
    monkeypatch.setattr(parallel, "PART_ROWS", 16)
    model, ds, schedule, cfg = wide_pretraining(samples=200)
    threads_before = threading.active_count()
    calls = 0
    loss = ls.pretrain_loss

    def diverging(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 2:
            raise NumericError("op 'matmul' produced non-finite values")
        return loss(*args, **kwargs)

    monkeypatch.setattr(tr, "pretrain_loss", diverging)
    _, report = tr.pretrain(model, ds, schedule, replace(cfg, pretrain_batch=64))
    assert report.diverged and len(started) == 1
    assert threading.active_count() == threads_before
    started.clear()
    train, validation = dd.subset(ds, np.arange(120), "train"), dd.subset(ds, np.arange(120, 200), "v")
    # steps too small to move the validation AUC: the first epoch without a gain stops the run
    _, report = tr.finetune(model, train, validation, None,
                            replace(cfg, finetune_epochs=5, finetune_batch=40, patience=1,
                                    finetune_lr=1e-300))
    assert len(report.epochs) == 1 and len(started) == 1
    assert threading.active_count() == threads_before
    started.clear()
    md.ctr_score(model, ds.token_matrix())
    _, grads = ad.forward_backward(lambda p: ls.pretrain_loss(model, ds.token_matrix()[:64], schedule,
                                                              np.random.default_rng(0)),
                                   model.params)
    adam_step(model.params, grads)
    assert threading.active_count() == threads_before
