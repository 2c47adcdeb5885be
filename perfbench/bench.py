"""One benchmark run: set-up, warm-up, the timed window, checks and output."""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from time import perf_counter

import numpy as np
import scipy

import diffctr.train
import workloads as wl
from tracer import Tracer

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "rows_per_s": "rows/s",
    "step_ms.p50": "ms",
}

# Machine-speed probe. A shared 2-vCPU Xeon VM at 2.0 GHz was seen to run
# stretches of seconds to minutes about 1.4x slower than others (a
# fixed kernel slows as much; /proc/stat shows no steal time), which moved
# the medians of 30 s runs by 15-30% from run to run. Every PROBE_EVERY_S
# the clock level runs this fixed kernel, half interpreter work and half
# small numpy calls like the tape, and host_scale() converts each timed
# interval to seconds at the probe's reference speed, so the end-to-end
# timings read as if the host had run at that speed throughout. The raw
# timings stay in the report.
PROBE_MATRIX = np.random.default_rng(0).random((48, 48))
SETUP_PROBES = 20  # set-up is scaled by the probe taken right after it
PROBE_REFERENCE_S = 0.0027  # the probe's time on that VM while it ran fast


def probe() -> float:
    started = perf_counter()
    table = {}
    for i in range(8000):
        table[i] = i * 0.5
    total = sum(table.values())
    x = PROBE_MATRIX
    for _ in range(120):
        x = np.tanh(x @ PROBE_MATRIX * 0.01 + total * 1e-9)
    return perf_counter() - started


def fingerprint() -> dict:
    fp = dict(diffctr.train._build_fingerprint())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    fp.update({
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
    })
    return fp


def host_scale(probe_at: list[float], probe_s: list[float]):
    """(a, b) on the tracer's clock -> seconds at the probe's reference speed.

    Between two probes the host is taken to run at the speed the later
    one measured (probes follow the step they time); before the first and
    after the last probe, at theirs.
    """
    if not probe_s:
        return lambda a, b: b - a
    at = np.asarray(probe_at)
    rate = PROBE_REFERENCE_S / np.asarray(probe_s)
    cum = np.concatenate([[0.0], np.cumsum(np.diff(at) * rate[1:])])

    def position(t: float) -> float:
        if t <= at[0]:
            return (t - at[0]) * rate[0]
        if t >= at[-1]:
            return cum[-1] + (t - at[-1]) * rate[-1]
        return float(np.interp(t, at, cum))

    return lambda a, b: position(b) - position(a)


def end_to_end(outcome: wl.Outcome, setup_s: float, scale) -> dict:
    steps_ms = [1000.0 * scale(a, b) for a, b in outcome.steps]
    busy_s = sum(scale(a, b) for a, b in outcome.busy)  # 0 when the first op already failed
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (outcome.attempted - outcome.failed) / max(outcome.attempted, 1),
        "rows_per_s": outcome.rows / busy_s if busy_s else 0.0,
        "step_ms.p50": wl.pct(steps_ms, 50),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def run_one(args, size: str, import_s: float) -> int:
    workload, variant = args.workload, args.seed % wl.VARIANTS
    refs = wl.load_references(size, workload, variant)
    state, build_s, data_s, inputs_sha = wl.setup(workload, size, variant)
    started = perf_counter()
    wl.warm_up(workload, state)
    warm_s = perf_counter() - started
    setup_speed = float(np.mean([probe() for _ in range(SETUP_PROBES)])) / PROBE_REFERENCE_S

    tracer = Tracer(full=bool(args.trace), probe=None if args.trace else probe)
    with tracer.installed():
        outcome = wl.RUNS[workload](state, refs, tracer, args.seconds)

    if args.trace:
        metrics = wl.layer_metrics(tracer, workload)
        overhead, calib_identical = wl.calibrate(workload, state, size, probe)
        # the references came from untraced runs, so equality means tracing changed nothing
        identical = calib_identical and outcome.outputs == refs
        metrics["data.dataset_build_s"] = (data_s, "s")
        metrics["trace_overhead_ratio"] = (overhead, "ratio")
        metrics["trace.bit_identical"] = (1.0 if identical else 0.0, "ratio")
        tracer.write_spans(os.path.join(args.out_dir, f"spans-{workload}-seed{args.seed}.jsonl"))
    else:
        scale = host_scale(tracer.probe_at, tracer.probe_s)
        metrics = end_to_end(outcome, (import_s + build_s + warm_s) / setup_speed, scale)

    report = {
        "workload": workload, "seed": args.seed, "variant": variant, "size": size,
        "seconds": args.seconds, "trace": args.trace, "inputs_sha256": inputs_sha,
        "fingerprint": fingerprint(),
        "setup": {"import_s": import_s, "build_s_median": build_s, "reps": wl.SETUP_REPS,
                  "warm_up_s": warm_s, "speed": setup_speed},
        "steps": len(outcome.steps),
        "outputs": outcome.outputs, "checks": outcome.checks, "errors": outcome.errors,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in outcome.named.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report["named"]["fail_ratio"] = {"value": outcome.failed / max(outcome.attempted, 1), "unit": "ratio"}
    step = "score_chunk_ms" if workload == "score-sessions" else "pretrain_step_ms"
    raw_ms = [1000.0 * (b - a) for a, b in outcome.steps]
    for q in (50, wl.TAIL_PERCENTILE[workload]):
        report["named"][f"{step}.p{q}"] = {"value": wl.pct(raw_ms, q), "unit": "ms"}
    report["named"]["rows_per_s.raw"] = {
        "value": outcome.rows / sum(b - a for a, b in outcome.busy) if outcome.busy else 0.0, "unit": "rows/s"}
    report["samples"] = {"steps": outcome.steps, "busy": outcome.busy,
                         "probe_at": tracer.probe_at, "probe_s": tracer.probe_s}
    name = f"report-{workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(args.out_dir, name), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    correct = outcome.failed == 0 and outcome.attempted > 0
    print(f"# {workload} seed {args.seed} (variant {variant}, {size}) trace {args.trace}: "
          f"{outcome.attempted} ops, {outcome.failed} failed, {len(outcome.steps)} steps, "
          f"{len(tracer.probe_s)} probes, set-up speed factor {setup_speed:.3f}")
    print("# fingerprint " + json.dumps(report["fingerprint"], sort_keys=True))
    for c in outcome.checks:
        print(f"# check {c['name']}: {'ok' if c['ok'] else 'MISMATCH'} got {c['got']!r} want {c['want']!r} "
              f"({c['kind']} tol {c['tol']})")
    for e in outcome.errors:
        print(f"# failed op: {e}", file=sys.stderr)
    for k, v in sorted(report["named"].items() if not args.trace else []):
        print(f"  {k:<48} {v['value']:>16.6f} {v['unit']}")
    for k, (v, u) in sorted(metrics.items()):
        print(f"  {k:<48} {v:>16.6f} {u}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, sort_keys=True))
    return 0


def write_references(size: str) -> None:
    """Rerun every (workload, variant) once, untraced, and store its outputs."""
    path = wl.REFERENCES
    table = json.load(open(path)) if os.path.exists(path) else {}
    table[size] = {}
    for workload in wl.WORKLOADS:
        table[size][workload] = {}
        for variant in range(wl.VARIANTS):
            state = wl.INPUTS[workload](size, variant)[0]
            tracer = Tracer(full=False)
            with tracer.installed():
                outcome = wl.RUNS[workload](state, {}, tracer, 0.0)
            table[size][workload][str(variant)] = outcome.outputs
            print(workload, variant, json.dumps(outcome.outputs), flush=True)
    table["tolerance"] = {"auc_abs": wl.AUC_TOL, "rel": wl.REL_TOL}
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
