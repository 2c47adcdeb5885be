"""Named oracle suites: exact identities the pipeline must satisfy.

Each suite compares an implementation route against an independent
route (closed form vs matrix exponential, rank statistic vs pairwise
enumeration, analytic gradients vs central differences, two-way softmax
vs sigmoid logloss) and reports the worst deviation seen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import corruption as fc
from . import losses as ls
from . import metrics as mt
from .data import feature_schema
from .errors import DataError
from .model import Model, ModelConfig
from .rng import stream
from .schedule import build_schedule


# the ops whose adjoints --negative-control scales, one at a time: every route's
# FFN and attention are one such node each, and the pretraining loss is the third
CONTROL_OP = ("ffn", "attention", "candidate_terms")


@dataclass
class SuiteResult:
    name: str
    passed: bool
    worst: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:<12} worst={self.worst:.3e}  limit={self.threshold:.0e}  {self.detail}"


def suite_kernel() -> SuiteResult:
    """Scaled-squaring matrix exponential against the closed-form jump."""
    worst = 0.0
    rates = [0.0, 0.1, float(np.log(2.0)), 2.3, 10.0]
    for vocab in range(1, 17):
        for rate in rates:
            diff = np.abs(fc.exact_kernel(vocab, rate).matrix - fc.closed_kernel(vocab, rate).matrix)
            worst = max(worst, float(diff.max()))
    return SuiteResult("kernel", worst <= 1e-10, worst, 1e-10,
                       detail=f"{16 * len(rates)} kernels")


def suite_marginal(trials: int = 20, seed: int = 2024) -> SuiteResult:
    """Factorized corrupted marginal against discretized-chain enumeration."""
    worst = 0.0
    for trial in range(trials):
        rng = stream(seed, "marginal", trial)
        ndim = 2 if trial % 2 == 0 else 3
        shape = tuple(int(v) for v in rng.integers(2, 5, size=ndim))
        p0 = rng.random(shape)
        p0 /= p0.sum()
        rates = rng.uniform(0.05, 3.0, size=ndim)
        oracle = fc.joint_marginal_oracle(p0, rates)
        chain = fc.chain_marginal(p0, rates, steps=2 + trial % 4)
        worst = max(worst, float(0.5 * np.abs(oracle - chain).sum()))
    return SuiteResult("marginal", worst <= 1e-9, worst, 1e-9, detail=f"{trials} joints")


def suite_score_ratio(trials: int = 40, seed: int = 2025) -> SuiteResult:
    """Unmasking ratio: direct marginals vs rate factor times conditional,
    plus rate-invariance of the extracted conditional."""
    worst = 0.0
    for trial in range(trials):
        rng = stream(seed, "ratio", trial)
        ndim = int(rng.integers(2, 4))
        shape = tuple(int(v) for v in rng.integers(2, 5, size=ndim))
        p0 = rng.random(shape)
        p0 /= p0.sum()
        masked = sorted(int(k) for k in rng.choice(ndim, size=int(rng.integers(1, ndim + 1)), replace=False))
        state = tuple(
            shape[k] if k in masked else int(rng.integers(shape[k])) for k in range(ndim)
        )
        n_prop = int(rng.integers(1, len(masked) + 1))
        prop_fields = [int(k) for k in rng.choice(masked, size=n_prop, replace=False)]
        proposal = {k: int(rng.integers(shape[k])) for k in prop_fields}

        conds = []
        for setting in range(3):
            rates = stream(seed, "ratio-rates", trial, setting).uniform(0.2, 3.0, size=ndim)
            res = fc.score_ratio_oracle(p0, rates, state, proposal)
            rel = abs(res.direct_ratio - res.product_form) / max(abs(res.direct_ratio), 1e-30)
            worst = max(worst, rel)
            conds.append(res.direct_ratio / res.rate_factor)
        worst = max(worst, (max(conds) - min(conds)) / max(abs(conds[0]), 1e-30))
    return SuiteResult("score-ratio", worst <= 1e-9, worst, 1e-9, detail=f"{trials} cases x 3 rates")


def suite_equivalence(draws: int = 1000, seed: int = 2026) -> SuiteResult:
    """Label-only-masked pretraining term against the fine-tune logloss."""
    worst = 0.0
    per_model = 50
    models = (draws + per_model - 1) // per_model
    for m in range(models):
        rng = stream(seed, "equiv", m)
        cfg = ModelConfig(
            embed_dim=2 * int(rng.integers(2, 6)),
            blocks=int(rng.integers(0, 3)),
            heads=2,
            ffn_width=8,
            temperature=float(rng.uniform(0.05, 1.0)),
        )
        schema = feature_schema([int(v) for v in rng.integers(2, 6, size=int(rng.integers(1, 4)))])
        model = Model.init(cfg, schema, seed=int(rng.integers(10**6)))
        tokens = rng.integers([f.vocab_size for f in schema], size=(per_model, len(schema)))
        worst = max(worst, ls.verify_label_equivalence(model, tokens))
    return SuiteResult("equivalence", worst <= 1e-9, worst, 1e-9,
                       detail=f"{models * per_model} instances")


def suite_gradcheck(negative_control: bool = False, seed: int = 2027) -> SuiteResult:
    """Analytic gradients of both losses against central differences.

    Runs at unit temperature so no candidate weight sinks into finite-
    difference noise; ReLU inputs are whatever the random init gives,
    with the seed pinned away from kinks.
    """
    rng = stream(seed, "gradcheck")
    cfg = ModelConfig(embed_dim=4, blocks=1, heads=2, ffn_width=8, temperature=1.0)
    schema = feature_schema([3, 2])
    model = Model.init(cfg, schema, seed=13)
    tokens = rng.integers([f.vocab_size for f in schema], size=(4, len(schema)))
    schedule = build_schedule(2, lo=0.1, hi=0.9)
    corrupted = fc.corrupt_batch(tokens, schedule, stream(seed, "corrupt"), model.mask_ids)

    def pretrain_fn(params):
        loss, _ = ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig())
        return loss

    def sft_fn(params):
        return ls.sft_loss(model, tokens)

    def check() -> tuple[float, list[str]]:
        worst, details = 0.0, []
        for fn in (pretrain_fn, sft_fn):
            reports = ad.grad_check(fn, model.params, h=1e-5, tol=1e-5)
            worst = max(worst, max(r.max_rel_error for r in reports))
            details.append(f"{len(reports)} parameters")
        return worst, details

    if not negative_control:
        worst, details = check()
        return SuiteResult("gradcheck", worst <= 1e-5, worst, 1e-5, detail="; ".join(details))
    # each op faulted in turn must run and fail the check; a control that never
    # ran, or whose faulted run passed, would let a wrong adjoint through, so the
    # suite fails then too, with worst inf and the op named
    worst, details, broken = float("inf"), [], False
    for op in CONTROL_OP:
        with ad.adjoint_fault(op, 2.0) as fault:
            faulted, _ = check()
        if fault.ran and faulted > 1e-5:
            worst = min(worst, faulted)
            details.append(f"'{op}' faulted: worst={faulted:.3e}")
        else:
            broken = True
            details.append(f"the faulted op '{op}' {'passed' if fault.ran else 'never ran'}")
    return SuiteResult("gradcheck", False, float("inf") if broken else worst, 1e-5,
                       detail="; ".join(details))


def suite_metrics(fixtures: int = 100, seed: int = 2028) -> SuiteResult:
    """Rank AUC and session AUC against their pairwise enumerations."""
    worst = 0.0
    for trial in range(fixtures):
        rng = stream(seed, "metrics", trial)
        n = int(rng.integers(10, 2001))
        decimals = int(rng.integers(1, 4))  # coarse grids force tie cases
        scores = np.round(rng.random(n), decimals)
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if trial % 2 == 0:
            worst = max(worst, abs(mt.auc(scores, labels) - mt.auc_pairwise(scores, labels)))
        else:
            sessions = rng.integers(0, max(2, n // 20), size=n)
            try:
                got = mt.gauc_pv(scores, labels, sessions)
            except DataError:
                continue  # all-single-class session draws carry no defined value
            worst = max(worst, abs(got - mt.gauc_pv_pairwise(scores, labels, sessions)))
    return SuiteResult("metrics", worst <= 1e-12, worst, 1e-12, detail=f"{fixtures} fixtures")


SUITES = {
    "kernel": suite_kernel,
    "marginal": suite_marginal,
    "score-ratio": suite_score_ratio,
    "equivalence": suite_equivalence,
    "gradcheck": suite_gradcheck,
    "metrics": suite_metrics,
}


def run_suites(names: list[str], negative_control: bool = False) -> list[SuiteResult]:
    results = []
    for name in names:
        if name == "gradcheck":
            results.append(suite_gradcheck(negative_control=negative_control))
        else:
            results.append(SUITES[name]())
    return results
