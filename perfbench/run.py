"""Run one btembed benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tree_roundtrip --seed 0 --seconds 12 --trace 0

Run from the root of a checkout. The workload runs in a child process whose
BLAS thread count is pinned in its environment before numpy loads, and which
imports btembed from the checkout's src/. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones from a traced run. Exits non-zero, printing no result, when the
checkout has no btembed sources or the workload fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tree_roundtrip", "path_query", "vector_parse", "list_edit")
# One BLAS thread: with two, run-to-run spread on a shared 2-core machine is
# several times wider (see perfbench/README.md).
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one btembed benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "btembed" / "__init__.py").is_file():
        print(f"perfbench: no btembed sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONPATH"] = str(src)
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        child = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if child.returncode != 0:
        print(f"perfbench: {args.workload} exited with code {child.returncode}", file=sys.stderr)
        return child.returncode if child.returncode > 0 else 1
    sys.stdout.write(child.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
