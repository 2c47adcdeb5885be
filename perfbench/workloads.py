"""The three workloads: inputs from a seed, the timed loop, output checks.

Every workload takes its inputs from a variant, seed % VARIANTS, so the
reference outputs stored in references.json cover every seed. The timed
window only calls diffctr's entry points (two_stage_run, pretrain,
evaluate); layer timings come from the Tracer wrapped around them.

  two-stage-default    the user's task: two_stage_run on the default
                       synthetic data (60k rows, 8 fields, V=50), 1+1
                       epochs, transfer through the checkpoint file. The
                       variant is the run seed. One run is the unit of
                       work, so its length is set by the task, not by
                       --seconds.
  pretrain-wide-vocab  pretraining only, on generated Zipf(1.1) tokens
                       over V=2000 per field at B=256: the full-vocab
                       logits, the O(B^2) candidate loop and the dense
                       O(V) gather and Adam dominate here.
  score-sessions       inference only: train.evaluate over a generated
                       split with page-view sessions of about 5
                       impressions, so report_for also runs gauc_pv.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

import diffctr.data as dd
import diffctr.experiments
import diffctr.train
from diffctr.config import (
    Config,
    parse_config,
    to_loss_config,
    to_model_config,
    to_run_config,
    to_schedule,
    to_synthetic_spec,
)
from diffctr.model import Model, ModelConfig
from diffctr.rng import stream

from tracer import PROFILED_OPS, Tracer

WORKLOADS = ("two-stage-default", "pretrain-wide-vocab", "score-sessions")
VARIANTS = 10
SETUP_REPS = 3

# Step-time tail for the report: the highest percentile with at least ten
# steps beyond it at --seconds 30 on a 2-vCPU Xeon VM (500, ~100 and ~60 steps).
TAIL_PERCENTILE = {"two-stage-default": 95, "pretrain-wide-vocab": 85, "score-sessions": 75}

# Stated tolerances for the reference checks. Rank metrics move in steps of
# 1/(n_pos * n_neg), so they get an absolute bound; losses and score sums
# a relative one.
AUC_TOL = 1e-7
REL_TOL = 1e-9

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

SMOKE_TWO_STAGE = """
[run]
pretrain_epochs = 1
finetune_epochs = 1
pretrain_batch = 16
finetune_batch = 64
[model]
embed_dim = 8
blocks = 1
heads = 2
ffn_width = 16
[synthetic]
fields = 3
vocab = 6
clusters = 2
samples = 600
seed = 3
"""


@dataclass(frozen=True)
class WideSizes:
    fields: int
    vocab: int
    batch: int
    steps_per_call: int
    min_calls: int  # counters and reference checks cover these calls
    model: ModelConfig


WIDE = {
    "full": WideSizes(8, 2000, 256, 8, 3, ModelConfig()),
    "smoke": WideSizes(3, 300, 32, 2, 3, ModelConfig(embed_dim=8, blocks=1, heads=2, ffn_width=16)),
}
SCORE_ROWS = {"full": 12 * 4096, "smoke": 2048}
SCORE_MODEL = {"full": ModelConfig(), "smoke": ModelConfig(embed_dim=8, blocks=1, heads=2, ffn_width=16)}


@dataclass
class Outcome:
    """What one workload run produced, before it becomes metrics."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    checks: list[dict] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    named: dict = field(default_factory=dict)  # per-phase metrics, reported raw and not gated
    # (start, end) on the tracer's clock: each of the workload's main steps,
    # and the timed work that processed `rows` rows
    steps: list[tuple[float, float]] = field(default_factory=list)
    busy: list[tuple[float, float]] = field(default_factory=list)
    rows: int = 0

    def op(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(why)


def load_references(size: str, workload: str, variant: int) -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh).get(size, {}).get(workload, {}).get(str(variant), {})


def check(outcome: Outcome, name: str, got: float, want: float | None, tol: float, relative: bool) -> bool:
    if want is None:
        ok = False
    else:
        bound = tol * abs(want) if relative else tol
        ok = bool(np.isfinite(got)) and abs(got - want) <= bound
    outcome.checks.append({"name": name, "ok": ok, "got": got, "want": want,
                           "tol": tol, "kind": "rel" if relative else "abs"})
    return ok


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def params_digest(model: Model) -> str:
    return digest(*(model.params.get_data(n) for n in model.params.names()))


def score_sketch(scores: np.ndarray) -> tuple[float, float]:
    """Tolerance-comparable digest of a score vector: its sum and a fixed random projection."""
    weights = stream(0, "perfbench-score-sketch").random(len(scores))
    return float(scores.sum()), float(scores @ weights)


def pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


# ---------------------------------------------------------------------------
# inputs


def two_stage_inputs(size: str, variant: int):
    cfg = Config() if size == "full" else parse_config(SMOKE_TWO_STAGE)
    if size == "full":
        cfg.set("run", "pretrain_epochs", 1)
        cfg.set("run", "finetune_epochs", 1)
    started = perf_counter()
    spec = to_synthetic_spec(cfg)
    dataset, _ = dd.generate_synthetic(spec)
    tr, va, te = dd.split_indices(spec.samples, spec.seed)
    env = diffctr.experiments.Environment(
        train=dd.subset(dataset, tr, "train"),
        validation=dd.subset(dataset, va, "validation"),
        test=dd.subset(dataset, te, "test"),
        model_cfg=to_model_config(cfg),
        run_cfg=to_run_config(cfg),
        schedule=to_schedule(cfg, spec.num_fields),
        loss_cfg=to_loss_config(cfg),
    )
    data_s = perf_counter() - started
    model = Model.init(env.model_cfg, env.train.schema, variant)
    state = {"env": env, "seed": variant, "model": model}
    return state, data_s, digest(env.train.token_matrix(), np.array([variant]))


def zipf_dataset(n: int, fields: int, vocab: int, variant: int) -> dd.Dataset:
    """Per-field Zipf(1.1) token ids under a random relabelling; logistic labels."""
    rng = stream(variant, "perfbench-wide")
    probs = 1.0 / np.arange(1, vocab + 1) ** 1.1
    probs /= probs.sum()
    tokens = np.empty((n, fields + 1), dtype=np.int64)
    logit = np.zeros(n)
    for k in range(fields):
        tokens[:, k] = rng.permutation(vocab)[rng.choice(vocab, size=n, p=probs)]
        logit += rng.normal(0.0, 0.5, size=vocab)[tokens[:, k]]
    tokens[:, -1] = rng.random(n) < 1.0 / (1.0 + np.exp(-logit))
    samples = [dd.Sample(tokens=tuple(row)) for row in tokens.tolist()]
    return dd.Dataset(schema=dd.feature_schema([vocab] * fields), samples=samples)


def wide_inputs(size: str, variant: int):
    s = WIDE[size]
    cfg = Config()
    started = perf_counter()
    dataset = zipf_dataset(s.batch * s.steps_per_call, s.fields, s.vocab, variant)
    data_s = perf_counter() - started
    state = {
        "dataset": dataset,
        "model": Model.init(s.model, dataset.schema, variant),
        "schedule": to_schedule(cfg, s.fields),
        "loss_cfg": to_loss_config(cfg),
        "run_cfg": replace(to_run_config(cfg), pretrain_epochs=1, pretrain_batch=s.batch),
        "variant": variant,
        "sizes": s,
    }
    return state, data_s, digest(dataset.token_matrix(), np.array([variant]))


def score_inputs(size: str, variant: int):
    started = perf_counter()
    spec = dd.random_spec(num_fields=8 if size == "full" else 3, vocab=50 if size == "full" else 6,
                          samples=SCORE_ROWS[size], seed=1000 + variant)
    plain, _ = dd.generate_synthetic(spec)
    rng = stream(variant, "perfbench-sessions")
    lengths = 1 + rng.poisson(4.0, size=len(plain.samples))  # page views of ~5 impressions
    session = np.repeat(np.arange(len(lengths)), lengths)[: len(plain.samples)]
    dataset = dd.Dataset(
        schema=plain.schema,
        samples=[dd.Sample(tokens=s.tokens, session_id=f"pv{int(p)}") for s, p in zip(plain.samples, session)],
        split="score",
    )
    data_s = perf_counter() - started
    state = {"dataset": dataset, "model": Model.init(SCORE_MODEL[size], dataset.schema, variant)}
    return state, data_s, digest(dataset.token_matrix(), session)


INPUTS = {"two-stage-default": two_stage_inputs, "pretrain-wide-vocab": wide_inputs,
          "score-sessions": score_inputs}


def setup(workload: str, size: str, variant: int):
    """Build the inputs SETUP_REPS times; keep the last build.

    Returns (state, median seconds per build, median data-layer seconds,
    input digest). Every build must produce the same inputs.
    """
    totals, datas, digests = [], [], set()
    state = None
    for _ in range(SETUP_REPS):
        state = None  # let the previous build go before the next one peaks
        started = perf_counter()
        state, data_s, inputs = INPUTS[workload](size, variant)
        totals.append(perf_counter() - started)
        datas.append(data_s)
        digests.add(inputs)
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic")
    return state, statistics.median(totals), statistics.median(datas), digests.pop()


# ---------------------------------------------------------------------------
# warm-up: first calls into BLAS and the tape, outside the timed window


def head(dataset: dd.Dataset, rows: int) -> dd.Dataset:
    return dd.subset(dataset, np.arange(min(rows, len(dataset.samples))), dataset.split)


def warm_up(workload: str, state) -> None:
    if workload == "two-stage-default":
        env = state["env"]
        piece = head(env.train, 4 * env.run_cfg.pretrain_batch)
        diffctr.train.pretrain(state["model"].clone(), piece, env.schedule, env.run_cfg, env.loss_cfg)
        diffctr.train.evaluate(state["model"], head(env.test, 512), "test")
    elif workload == "pretrain-wide-vocab":
        piece = head(state["dataset"], state["run_cfg"].pretrain_batch)
        diffctr.train.pretrain(state["model"].clone(), piece, state["schedule"], state["run_cfg"],
                               state["loss_cfg"])
    else:
        diffctr.train.evaluate(state["model"], head(state["dataset"], 512), "score")


# ---------------------------------------------------------------------------
# timed runs


def run_two_stage(state, refs: dict, tracer: Tracer, seconds: float) -> Outcome:
    env, seed = state["env"], state["seed"]
    out = Outcome()
    started = tracer.now()
    try:
        _, report = diffctr.experiments.two_stage_run(env, seed)
    except Exception as e:  # a failed run is a failed op, not a crash of the benchmark
        out.op(False, f"{type(e).__name__}: {e}")
        return out
    wall = tracer.now() - started
    pre = tracer.pretrain_reports[-1]
    last_loss = pre.epochs[-1].train_loss if pre.epochs else float("nan")  # no epoch survives a first-epoch divergence
    out.outputs = {"test_auc": report.test.auc, "pretrain_last_loss": last_loss}
    ok = not (report.diverged or pre.diverged)
    ok &= check(out, "test_auc", report.test.auc, refs.get("test_auc"), AUC_TOL, False)
    ok &= check(out, "pretrain_last_loss", last_loss, refs.get("pretrain_last_loss"), REL_TOL, True)
    out.op(ok, "diverged" if report.diverged or pre.diverged else "output mismatch")

    n_train = len(env.train.samples)
    busy = tracer.durations()
    eval_s = busy[("train.evaluate", "score")]
    fine_s = busy[("train.finetune", "finetune")] - eval_s  # every evaluate runs inside finetune
    rows = {"pretrain": n_train * len(pre.epochs), "finetune": n_train * len(report.epochs),
            "score": tracer.counters["score.scored_rows"]}
    out.steps = tracer.step_times("pretrain")
    out.busy, out.rows = [(started, started + wall)], sum(rows.values())
    out.named = {
        "two_stage_s": (wall, "s"),
        "auc": (report.test.auc, "auc"),
        "pretrain_rows_per_s": (rows["pretrain"] / busy[("train.pretrain", "pretrain")], "rows/s"),
        "finetune_rows_per_s": (rows["finetune"] / fine_s, "rows/s"),
        "score_rows_per_s": (rows["score"] / eval_s, "rows/s"),
    }
    return out


def run_wide(state, refs: dict, tracer: Tracer, seconds: float) -> Outcome:
    """Pretrain calls of steps_per_call steps each until the window closes.

    Call i uses run seed 1000 * variant + i, so every call draws fresh
    shuffles and corruption while the sequence stays fixed by the seed.
    The first min_calls calls are checked against the references and
    are the fixed prefix the counters cover.
    """
    s = state["sizes"]
    out = Outcome()
    model, ds = state["model"], state["dataset"]
    want = refs.get("call_losses", [])
    losses = []
    started = tracer.now()
    call = 0
    while call < s.min_calls or tracer.now() - started < seconds:
        cfg = replace(state["run_cfg"], seed=1000 * state["variant"] + call)
        try:
            model, report = diffctr.train.pretrain(model, ds, state["schedule"], cfg, state["loss_cfg"])
        except Exception as e:  # counted as a failed op; the window goes on
            out.op(False, f"call {call}: {type(e).__name__}: {e}")
            report = None
        if report is not None and report.diverged:
            out.op(False, f"call {call}: diverged")
        elif report is not None:
            loss = report.epochs[-1].train_loss
            losses.append(loss)
            ok = call >= s.min_calls or check(
                out, f"call{call}_mean_step_loss", loss, want[call] if call < len(want) else None,
                REL_TOL, True)
            out.op(ok, f"call {call}: output mismatch")
        call += 1
        if call == s.min_calls:
            tracer.counting = False
    out.outputs = {"call_losses": losses[: s.min_calls]}
    out.steps = tracer.step_times("pretrain")
    out.busy = tracer.intervals("train.pretrain")
    out.rows = s.batch * len(out.steps)
    out.named = {"pretrain_rows_per_s": (out.rows / sum(b - a for a, b in out.busy), "rows/s")}
    return out


def run_score(state, refs: dict, tracer: Tracer, seconds: float) -> Outcome:
    """evaluate passes over the whole split until the window closes.

    The first pass is checked against the references; every later pass
    must reproduce it bit for bit.
    """
    out = Outcome()
    model, ds = state["model"], state["dataset"]
    first = None
    started = tracer.now()
    while first is None or tracer.now() - started < seconds:
        try:
            report = diffctr.train.evaluate(model, ds, "score")
        except Exception as e:
            out.op(False, f"{type(e).__name__}: {e}")
            break
        scores = tracer.last_scores
        got = (report.auc, report.gauc_pv, digest(scores))
        if first is None:
            first = got
            total, proj = score_sketch(scores)
            out.outputs = {"auc": report.auc, "gauc_pv": report.gauc_pv, "score_sum": total,
                           "score_proj": proj, "score_sha256": got[2]}
            ok = check(out, "auc", report.auc, refs.get("auc"), AUC_TOL, False)
            ok &= report.gauc_pv is not None and check(
                out, "gauc_pv", report.gauc_pv, refs.get("gauc_pv"), AUC_TOL, False)
            ok &= check(out, "score_sum", total, refs.get("score_sum"), REL_TOL, True)
            ok &= check(out, "score_proj", proj, refs.get("score_proj"), REL_TOL, True)
            out.op(ok, "output mismatch")
            tracer.counting = False
        else:
            out.op(got == first, "pass differs from the first pass")
    out.steps = tracer.intervals("model.ctr_score")
    out.busy = tracer.intervals("train.evaluate")
    out.rows = tracer.counters["score.scored_rows"]
    out.named = {"score_rows_per_s": (out.rows / sum(b - a for a, b in out.busy), "rows/s")}
    if out.outputs:
        out.named["auc"] = (out.outputs["auc"], "auc")
    return out


RUNS = {"two-stage-default": run_two_stage, "pretrain-wide-vocab": run_wide, "score-sessions": run_score}


# ---------------------------------------------------------------------------
# trace calibration: one small unit of each workload, clock vs full tracing


def calibration_unit(workload: str, state, size: str):
    """A callable running a fixed unit of the workload; returns its output digest."""
    if workload == "score-sessions":
        piece = head(state["dataset"], 8192)

        def unit(tracer):
            report = diffctr.train.evaluate(state["model"], piece, "score")
            return digest(tracer.last_scores, np.array([report.auc, report.gauc_pv]))

        return unit
    if workload == "two-stage-default":
        env = state["env"]
        steps = 32 if size == "full" else 4
        piece = head(env.train, steps * env.run_cfg.pretrain_batch)
        schedule, cfg, loss_cfg = env.schedule, env.run_cfg, env.loss_cfg
    else:
        cfg = state["run_cfg"]
        piece = head(state["dataset"], 4 * cfg.pretrain_batch)
        schedule, loss_cfg = state["schedule"], state["loss_cfg"]

    def unit(tracer):
        model, report = diffctr.train.pretrain(state["model"].clone(), piece, schedule, cfg, loss_cfg)
        return digest(np.array([report.epochs[-1].train_loss])) + params_digest(model)

    return unit


def calibrate(workload: str, state, size: str, probe) -> tuple[float, bool]:
    """(full-trace time / clock time, whether all outputs were bit-identical).

    Alternates clock and full tracing over the same unit, three times
    each. Each unit's time is divided by the probe timed around it, so a
    host slowdown between units does not pass for tracing overhead.
    """
    unit = calibration_unit(workload, state, size)
    times = {False: [], True: []}
    outputs = set()
    for full in (False, True) * 3:
        tracer = Tracer(full=full)
        before = probe()
        with tracer.installed():
            started = perf_counter()
            outputs.add(unit(tracer))
            took = perf_counter() - started
        times[full].append(took / (before + probe()))
    return statistics.median(times[True]) / statistics.median(times[False]), len(outputs) == 1


# ---------------------------------------------------------------------------
# per-layer metrics from a full trace


def layer_metrics(tracer: Tracer, workload: str) -> dict[str, tuple[float, str]]:
    dur, own, c = tracer.durations(), tracer.self_times(), tracer.counters
    steps = {ph: tracer.count("optim.adam_step", ph) for ph in ("pretrain", "finetune")}
    rows = c["score.scored_rows"]

    def ratio(a, b):
        return a / b if b else 0.0

    def per_step(seconds, phase):
        return ratio(1000.0 * seconds, steps[phase])

    def per_1k(seconds):
        return ratio(1e6 * seconds, rows)

    def total(table, name):
        return sum(v for (n, _), v in table.items() if n == name)

    m = {
        "data.batch_iter.ms_per_step": (ratio(1000.0 * total(dur, "data.batch_iter"),
                                              steps["pretrain"] + steps["finetune"]), "ms"),
        "corruption.corrupt_batch.ms_per_step": (per_step(
            dur[("corruption.stream", "pretrain")] + dur[("corruption.corrupt_batch", "pretrain")],
            "pretrain"), "ms"),
        "corruption.masked_fraction": (ratio(c["masked"], c["positions"]), "ratio"),
        "model.encode.ms_per_step": (per_step(dur[("model.encode", "pretrain")], "pretrain"), "ms"),
        "model.encode.finetune_ms_per_step": (per_step(dur[("model.encode", "finetune")], "finetune"), "ms"),
        "model.encode.ms_per_1k_rows": (per_1k(dur[("model.encode", "score")]), "ms"),
        "model.ctr_score.ms_per_1k_rows": (per_1k(dur[("model.ctr_score", "score")]), "ms"),
        "model.checkpoint_ms": (1000.0 * total(dur, "model.checkpoint"), "ms"),
        "losses.masked_field_losses.self_ms_per_step": (per_step(
            own[("losses.masked_field_losses", "pretrain")], "pretrain"), "ms"),
        "losses.sft_loss.self_ms_per_step": (per_step(own[("losses.sft_loss", "finetune")], "finetune"), "ms"),
        "losses.candidate_fill": (ratio(c["candidate_entries"], c["logits_computed"]), "ratio"),
        "autodiff.backward.ms_per_step": (per_step(dur[("autodiff.backward", "pretrain")], "pretrain"), "ms"),
        "autodiff.tape_nodes_per_step": (ratio(sum(tracer.tape_ops["pretrain"].values()),
                                               c["pretrain.backward_calls"]), "count"),
        "autodiff.tape_nodes_per_1k_scored_rows": (ratio(1000.0 * sum(tracer.tape_ops["score"].values()),
                                                         c["score.tape_rows"]), "count"),
        "optim.adam_step.ms_per_step": (per_step(dur[("optim.adam_step", "pretrain")], "pretrain"), "ms"),
        "optim.grad_rows_touched_ratio": (ratio(c["grad_rows_touched"], c["grad_rows"]), "ratio"),
        "metrics.report_for.ms_per_1k_rows": (per_1k(dur[("metrics.report_for", "score")]), "ms"),
        "train.evaluate.ms_per_1k_rows": (per_1k(dur[("train.evaluate", "score")]), "ms"),
        "train.self_ms": (1000.0 * sum(total(own, n) for n in ("train.pretrain", "train.finetune",
                                                                "train.evaluate")), "ms"),
        "experiments.two_stage_run.self_ms": (1000.0 * total(own, "experiments.two_stage_run"), "ms"),
    }

    # the op profile follows the workload's main phase: a pretrain step, or
    # one ctr_score chunk when only scoring runs
    if workload == "score-sessions":
        phase, n_steps, n_taped = "score", tracer.count("model.ctr_score"), c["score.tape_calls"]
        root = "train.evaluate"
    else:
        phase, n_steps, n_taped = "pretrain", steps["pretrain"], c["pretrain.backward_calls"]
        root = "train.pretrain"
    for op in PROFILED_OPS:
        m[f"autodiff.op.{op}.count_per_step"] = (ratio(tracer.tape_ops[phase][op], n_taped), "count")
        if op != "param":
            m[f"autodiff.op.{op}.fwd_ms_per_step"] = (ratio(1000.0 * tracer.op_fwd[(phase, op)], n_steps), "ms")
        if op not in ("param", "const"):
            m[f"autodiff.op.{op}.bwd_ms_per_step"] = (ratio(1000.0 * tracer.op_bwd[(phase, op)], n_steps), "ms")
    m["trace.span_coverage"] = (1.0 - ratio(own[(root, phase)], dur[(root, phase)]), "ratio")
    return m
