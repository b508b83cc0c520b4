"""Count failures on the acceptance-suite inputs that the timed workloads leave out.

    PYTHONPATH=src python3 perfbench/frontier.py --workload vector_parse --seed 0 --ops 200

Each workload times only the input classes on which every operation is
exact. The classes of its acceptance suite beyond that (Workload.frontier)
are where the construction runs out of margin. This script runs `--ops`
operations of each such class with the workload's own inputs, operation and
check, and prints one JSON line of attempted and failed counts per class.
It is a capacity measurement, not a benchmark: nothing is timed, and a
failure is the expected finding, not an error.
"""

from __future__ import annotations

import argparse
import json
import sys

from btembed.harness import trial_rng

from workloads import WORKLOADS, Client


def measure(name: str, seed: int, ops: int) -> dict:
    w = WORKLOADS[name]
    ctx = w.setup(w.dim)
    counts = {}
    for j, cls in enumerate(w.frontier):
        client = Client(w, ctx)
        # class indices past the timed ones, so these inputs share no stream with them
        k = len(w.classes) + j
        for i in range(ops):
            client.run(w.make_input(ctx, trial_rng(seed, w.code, w.dim, k, i), cls))
        counts[str(cls)] = {"attempted": client.attempted, "failed": client.failed}
    return counts


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [n for n, w in WORKLOADS.items() if w.frontier]
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ops", type=int, default=200, help="operations per frontier class")
    args = ap.parse_args(argv)
    counts = measure(args.workload, args.seed, args.ops)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "classes": counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
