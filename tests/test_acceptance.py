"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with `pytest -s`) and
asserts the criterion's numeric bound. Elapsed wall-clock is reported
for the budgeted criteria but never asserted; shared CPUs make timing
assertions flaky.
"""

import time

import numpy as np
import pytest

from diffctr import autodiff as ad
from diffctr import corruption as fc
from diffctr import data as dd
from diffctr import verify as vf
from diffctr.model import Model, ModelConfig, encode, field_logits
from diffctr.rng import stream
from diffctr.schedule import build_schedule
from diffctr.train import RunConfig, pretrain

SEEDS = [0, 1, 2, 3, 4]


def announce(num, name, passed, detail, started):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {num:>2}] {status} {name}: {detail} ({time.perf_counter() - started:.1f}s)")


def test_criterion_1_forward_kernel_exactness():
    t0 = time.perf_counter()
    result = vf.suite_kernel()
    announce(1, "forward-kernel exactness", result.passed,
             f"max |expm - closed form| = {result.worst:.2e} <= 1e-10", t0)
    assert result.worst <= 1e-10


def test_criterion_2_monte_carlo_forward_process():
    t0 = time.perf_counter()
    vocab = (5,) * 9 + (2,)
    ids = np.array(vocab)
    n = 10**5
    clean = np.zeros((n, 10), dtype=np.int64)
    out = fc.corrupt_batch(clean, None, stream(42, "acceptance-mc"), ids,
                           fixed_probs=np.full(10, 0.5))
    counts = out.masked.sum(axis=0)
    sigma = np.sqrt(0.25 / n)
    # the force-mask rule can only add mass, bounded by P(no field drawn)
    slack = 4 * sigma + 2.0**-10
    worst = np.max(np.abs(counts / n - 0.5))

    chain_rng = stream(43, "acceptance-chain")
    monotone = True
    for _ in range(500):
        path = fc.simulate_chain((1, 2, 3), (5, 5, 5), np.array([0.7, 1.3, 2.1]), 6, chain_rng)
        for before, after in zip(path, path[1:]):
            for k in range(3):
                if before[k] == 5 and after[k] != 5:
                    monotone = False
    passed = worst < slack and monotone
    announce(2, "Monte Carlo forward process", passed,
             f"max |rate - 0.5| = {worst:.4f} < {slack:.4f}, chain never unmasks: {monotone}", t0)
    assert worst < slack and monotone


def test_criterion_3_factorized_marginal():
    t0 = time.perf_counter()
    result = vf.suite_marginal(trials=20)
    announce(3, "factorized marginal vs chain enumeration", result.passed,
             f"max TV = {result.worst:.2e} <= 1e-9", t0)
    assert result.worst <= 1e-9


def test_criterion_4_score_ratio_and_time_independence():
    t0 = time.perf_counter()
    result = vf.suite_score_ratio(trials=40)
    announce(4, "score-ratio identity + rate invariance", result.passed,
             f"max rel dev = {result.worst:.2e} <= 1e-9", t0)
    assert result.worst <= 1e-9


def test_criterion_5_label_loss_equivalence():
    t0 = time.perf_counter()
    result = vf.suite_equivalence(draws=1000)
    announce(5, "label-masked pretraining = fine-tune logloss", result.passed,
             f"max |a - b| = {result.worst:.2e} <= 1e-9 over 1000 draws", t0)
    assert result.worst <= 1e-9


def test_criterion_6_gradient_fidelity():
    t0 = time.perf_counter()
    result = vf.suite_gradcheck()
    announce(6, "gradient fidelity through both losses", result.passed,
             f"max rel err = {result.worst:.2e} <= 1e-5", t0)
    assert result.worst <= 1e-5


def test_criterion_7_metric_oracles():
    t0 = time.perf_counter()
    result = vf.suite_metrics(fixtures=100)
    announce(7, "rank metrics vs pairwise oracles", result.passed,
             f"max |rank - pairwise| = {result.worst:.2e} <= 1e-12 on 100 fixtures", t0)
    assert result.worst <= 1e-12


def conditional_kl(model, p0):
    """Σ over feature fields k and contexts c of p0(c) · KL(p0(x_k | c) ‖ q(x_k | c)) in nats.

    A context is field k masked, the label visible at 0 and the other
    field token 0, token 1 (p0(c) its marginal) or masked (p0(c) = 1);
    q is the model's softmax over field k's whole vocabulary.
    """
    total = 0.0
    for k in (0, 1):
        other = 1 - k
        joint = p0 if k == 0 else p0.T  # joint[x_k, x_other]
        tokens = np.zeros((3, 3), dtype=np.int64)
        tokens[:, k] = model.mask_ids[k]
        tokens[:, other] = [0, 1, model.mask_ids[other]]
        ctx = ad.take_position(encode(model, tokens), k)
        logits = field_logits(model, k, ctx, np.arange(2)).data
        log_q = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        weights = np.append(joint.sum(axis=0), 1.0)
        p = np.vstack([(joint / joint.sum(axis=0)).T, joint.sum(axis=1)])
        total += weights @ (p * (np.log(p) - log_q)).sum(axis=1)
    return total


def test_criterion_11_stage_one_learns_the_exact_conditionals():
    t0 = time.perf_counter()
    p0 = np.array([[0.35, 0.15], [0.10, 0.40]])
    rng = stream(7, "reverse-data")
    n_train = 4096
    flat = rng.choice(4, size=n_train, p=p0.reshape(-1))
    samples = [dd.Sample(tokens=(int(i // 2), int(i % 2), 0)) for i in flat]
    schema = dd.feature_schema([2, 2])
    train = dd.Dataset(schema=schema, samples=samples, split="train")

    model = Model.init(ModelConfig(embed_dim=16, blocks=1, heads=2, ffn_width=32), schema, 3)
    untrained = model.clone()
    schedule = build_schedule(2, lo=0.0, hi=0.9, label_lo=0.2, horizon=100)
    cfg = RunConfig(seed=3, pretrain_epochs=40, pretrain_batch=64, pretrain_lr=3e-3)
    model, report = pretrain(model, train, schedule, cfg)

    kl, control = conditional_kl(model, p0), conditional_kl(untrained, p0)
    passed = kl <= 0.1 < control
    announce(11, "stage one's conditionals match the data's", passed,
             f"weighted KL = {kl:.4f} <= 0.1 nats, untrained {control:.2f} > 0.1 "
             f"(final pretrain loss {report.epochs[-1].train_loss:.4f})", t0)
    assert kl <= 0.1 < control
