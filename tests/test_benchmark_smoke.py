"""The benchmark end to end at smoke sizes, each workload in a fresh process.

perfbench's tracer reads Tensor.op and reassigns Tensor.vjps on every op
it times, and counts the tape by walking .parents and .op from the loss;
a run with the tracer on checks those reads against the tape's shape.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAINING = ("two-stage-default", "pretrain-wide-vocab")


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_correct_at_smoke_sizes(trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "all",
         "--smoke", "--seconds", "0", "--trace", str(trace), "--out-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(results) == sorted(TRAINING + ("score-sessions",))
    for workload, result in results.items():
        assert result["correct"] and result["failed"] == 0, (workload, result)
        if trace:
            nodes = result["metrics"]["autodiff.tape_nodes_per_step"]["value"]
            assert (nodes > 0) == (workload in TRAINING), (workload, nodes)
