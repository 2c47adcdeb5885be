"""Smoke-size tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

Every run here uses --smoke, so each workload takes a second or two.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
         1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
# per-layer values that are timings, not counts: they may differ between reruns
TIMED_UNITS = {"ms", "s"}
TIMED_RATIOS = {"trace.span_coverage", "trace_overhead_ratio"}


@functools.lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int, tmp_root: str):
    out_dir = os.path.join(tmp_root, f"{workload}-{seed}-{trace}")
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--smoke", "--out-dir", out_dir],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(out_dir, f"report-{workload}-seed{seed}-trace{trace}.json")) as fh:
        report = json.load(fh)
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1]), report


@pytest.fixture(scope="module")
def tmp_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("perfbench"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace, tmp_root):
    stdout, result, _ = run(workload, 0, trace, tmp_root)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(UNITS[trace])
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == UNITS[trace][name]
        assert isinstance(entry["value"], float)
        assert any(line.split()[:1] == [name] and line.split()[-1] == entry["unit"]
                   for line in stdout.splitlines()), name
    if trace == 0:  # end-to-end metrics never read 0
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_metric_names(workload, tmp_root):
    _, a, report_a = run(workload, 0, 0, tmp_root)
    _, b, report_b = run(workload, 1, 0, tmp_root)
    assert report_a["inputs_sha256"] != report_b["inputs_sha256"]
    assert report_a["outputs"] != report_b["outputs"]
    assert set(a["metrics"]) == set(b["metrics"])
    assert b["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly_and_trace_keeps_outputs(workload, tmp_root, tmp_path):
    _, first, report = run(workload, 0, 1, tmp_root)
    _, second, _ = run(workload, 0, 1, str(tmp_path))
    counters = {k for k, u in UNITS[1].items() if u not in TIMED_UNITS and k not in TIMED_RATIOS}
    assert counters
    for name in counters:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["trace.bit_identical"]["value"] == 1.0
    _, _, untraced = run(workload, 0, 0, tmp_root)
    assert report["outputs"] == untraced["outputs"]


@pytest.mark.parametrize("workload", ["two-stage-default", "pretrain-wide-vocab"])
def test_negative_control_fails_the_output_check(workload):
    """A doubled matmul adjoint must be caught by the reference check."""
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    try:
        import workloads as wl
        from diffctr.autodiff import adjoint_fault
        from tracer import Tracer

        state = wl.INPUTS[workload]("smoke", 0)[0]
        refs = wl.load_references("smoke", workload, 0)
        tracer = Tracer(full=False)
        with tracer.installed(), adjoint_fault("matmul", 2.0):
            outcome = wl.RUNS[workload](state, refs, tracer, 0.0)
        assert outcome.failed > 0
        assert not all(c["ok"] for c in outcome.checks)
    finally:
        del sys.path[:2]


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, print no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score-sessions", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
