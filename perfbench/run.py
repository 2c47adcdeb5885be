"""diffctr benchmark: one workload per fresh process, checked outputs, one JSON line.

  python3 perfbench/run.py --workload two-stage-default --seed 0 --seconds 30 --trace 0

The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Lines before it spell out every metric by name and unit, the
machine fingerprint and the output checks; the same report, and with
--trace 1 the spans, are written under .perfbench_out/ in the checkout.

  --workload all        every workload, each in a fresh subprocess
  --smoke               tiny sizes, seconds per workload (the tests use it)
  --write-references    rerun every variant and rewrite references.json
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter

STARTED = perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("two-stage-default", "pretrain-wide-vocab", "score-sessions")
BLAS_THREADS = 1  # no more than nproc; one thread keeps timings steady and sums bit-reproducible


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out-dir", default=os.path.join(ROOT, ".perfbench_out"))
    p.add_argument("--write-references", action="store_true")
    args = p.parse_args(argv)
    if not args.write_references and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    return args


def pin_threads() -> None:
    """Cap BLAS/OpenMP threads before numpy loads; never above the CPUs this process may use."""
    cap = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)


def run_all(args) -> int:
    """Each workload in a fresh process; a table of every metric, then one JSON line."""
    import json
    import subprocess

    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", args.out_dir]
        cmd += ["--smoke"] if args.smoke else []
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "diffctr", "__init__.py")):
        print(f"error: no diffctr sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    pin_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    os.makedirs(args.out_dir, exist_ok=True)
    import tempfile

    tempfile.tempdir = os.path.join(args.out_dir, "tmp")  # two_stage_run's checkpoint stays in the checkout
    os.makedirs(tempfile.tempdir, exist_ok=True)
    import bench

    size = "smoke" if args.smoke else "full"
    if args.write_references:
        bench.write_references(size)
        return 0
    return bench.run_one(args, size, perf_counter() - STARTED)


if __name__ == "__main__":
    sys.exit(main())
