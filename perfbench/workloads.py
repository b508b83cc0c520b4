"""Closed-loop workloads over the public btembed API.

Started by run.py, which pins the BLAS thread count in this process's
environment before numpy is imported. One client issues one operation at a
time; the next starts when the previous one has returned and been checked.
Inputs and their references come from the workload seed and are made
outside the timed window. The last stdout line is the result JSON.

    python3 perfbench/workloads.py --workload tree_roundtrip --seed 0 --seconds 12 --trace 0
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import btembed as bt
from btembed.harness import cell_seed, chain_tree, trial_rng
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_OPS = 200  # p95 then has ten samples beyond it
# setup_s is the median of at least SETUP_MIN_REPEATS set-ups, more for the
# cheap ones, until SETUP_BUDGET_S is spent or SETUP_MAX_REPEATS is reached.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 2.0
WARMUP_OPS = 16
OP_FAILURES = (bt.BudgetExceededError, bt.NoParseError, bt.StepBudgetExceededError)

# Kind codes of the preregistered acceptance suites: list 1 (c02), tree 2
# (c01), parse 3 (c09), transformer 5 (c07). Each workload uses its suite's
# fixed embedding, seeded from base 0; the workload seed varies only the
# inputs, drawn as trial_rng(seed, code, d, class index, operation index).
LIST_CODE, TREE_CODE, PARSE_CODE, XF_CODE = 1, 2, 3, 5
ACCEPTANCE_BASE = 0


@dataclass(frozen=True)
class Workload:
    """One input family and the operation run on it.

    classes stratify the inputs: each block of len(classes) operations holds
    every class once in a seeded order, so a run's input mix, and with it the
    cost of a run, barely depends on the seed. setup builds everything the
    operations need and is what setup_s times. make_input(ctx, rng, cls)
    returns (input, reference); op(ctx, input) is the timed operation and
    check(ctx, output, reference) its correctness test.

    classes stay inside the regime where every operation is exact. frontier
    lists the classes of the acceptance suite beyond it, where some inputs
    fail; they are not timed, and frontier.py counts their failures.
    """

    name: str
    code: int
    dim: int
    classes: tuple
    trace_ops: int
    setup: Callable[[int], dict]
    make_input: Callable[[dict, np.random.Generator, Any], tuple]
    op: Callable[[dict, Any], Any]
    check: Callable[[dict, Any, Any], bool]
    frontier: tuple = ()
    check_setup: Callable[[dict], bool] = field(default=lambda ctx: True)


# --- tree_roundtrip: encode a random tree and probe-decode it (c01) ---------

TREE_SCHEMA = bt.make_sweep_schema(100, 4)


def tree_setup(dim: int) -> dict:
    return {"e": bt.make_embedding(TREE_SCHEMA, dim, cell_seed(ACCEPTANCE_BASE, TREE_CODE, 2000, 16))}


def tree_input(ctx: dict, rng: np.random.Generator, size: int) -> tuple:
    tree = bt.random_tree(size, 100, 4, rng)
    return tree, tree


def tree_op(ctx: dict, tree: bt.Tree) -> bt.Tree | None:
    e = ctx["e"]
    return bt.decode(e, bt.bt_encode(e, tree))


# --- path_query: read the labels along a root path with the transformer (c07)


def path_input(ctx: dict, rng: np.random.Generator, length: int) -> tuple:
    """A c07 query whose root path has exactly `length` steps.

    Trees of 1..10 nodes are drawn as in c07 until one has such a path, and
    the path is picked uniformly among them. The reference is the probe walk:
    decode_token after each M_attr^T step.
    """
    e = ctx["e"]
    while True:
        tree = bt.random_tree(int(rng.integers(1, 11)), 100, 4, rng)
        paths = [p for p, _ in tree.paths() if len(p) == length]
        if paths:
            break
    path = list(paths[int(rng.integers(len(paths)))])
    v = bt.bt_encode(e, tree)
    u = v.data
    ref = [bt.decode_token(e, u)]
    for a in path:
        u = e.attribute_matrices[a].T @ u
        ref.append(bt.decode_token(e, u))
    return (v, path), ref


# c07 picks a root path of length <= 5 uniformly among a random tree's paths;
# these are the resulting length frequencies (measured on 40,000 such draws:
# 29.2, 31.5, 23.4, 11.4, 3.8 and 0.9 %) per block of 105 queries. Lengths 4
# and 5 are the frontier: there the path channel's gate inputs come within
# 1e-3 of their 0.5 threshold and a wrong gate can open, whatever the tree.
PATH_LENGTHS = (0,) * 32 + (1,) * 35 + (2,) * 26 + (3,) * 12


def path_op(ctx: dict, query: tuple) -> list:
    v, path = query
    return bt.run_decoder(ctx["e"], v, path)


# --- vector_parse: parse a balanced word in vector space, then decode (c09) -

PARENS_SCHEMA = bt.balanced_parens_schema()
PARENS_GRAMMAR = bt.balanced_parens_grammar()


def parse_setup(dim: int) -> dict:
    e = bt.make_embedding(PARENS_SCHEMA, dim, cell_seed(ACCEPTANCE_BASE, PARSE_CODE, 1000, 12))
    return {"e": e, "rules": bt.compile_rules(e, PARENS_GRAMMAR)}


def parse_input(ctx: dict, rng: np.random.Generator, length: int) -> tuple:
    word = bt.random_balanced(length, rng)
    return word, bt.symbolic_parse(PARENS_GRAMMAR, word, PARENS_SCHEMA)


def parse_op(ctx: dict, word: list) -> bt.Tree | None:
    e = ctx["e"]
    return bt.decode(e, bt.parse(e, word, ctx["rules"]))


# --- list_edit: build two lists by push folds, join them with attach -------

LIST_SCHEMA = bt.make_sweep_schema(100, 1)
NEXT = LIST_SCHEMA.attribute_index("next")


def list_setup(dim: int) -> dict:
    """Build, save and reload the embedding, as every CLI command after embed does."""
    built = bt.make_embedding(LIST_SCHEMA, dim, cell_seed(ACCEPTANCE_BASE, LIST_CODE, 1000, 8))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        path = Path(tmp) / "list.bte"
        bt.save_embedding(built, path)
        loaded = bt.load_embedding(path)
    return {"e": loaded, "built": built}


def list_setup_ok(ctx: dict) -> bool:
    a, b = ctx["built"], ctx["e"]
    return (
        a.fingerprint == b.fingerprint
        and np.array_equal(a.token_vectors, b.token_vectors)
        and np.array_equal(a.attribute_matrices, b.attribute_matrices)
    )


def list_input(ctx: dict, rng: np.random.Generator, lengths: tuple[int, int]) -> tuple:
    e = ctx["e"]
    first = [int(x) for x in rng.integers(100, size=lengths[0])]
    second = [int(x) for x in rng.integers(100, size=lengths[1])]
    joined = first + second
    return (first, second), (bt.encode_list(e, joined).data, chain_tree(e, joined))


def list_op(ctx: dict, lists: tuple) -> tuple:
    e = ctx["e"]
    halves = []
    for tokens in lists:
        acc = bt.zero_vector(e)
        for t in reversed(tokens):
            acc = bt.push(e, acc, t)
        halves.append(acc)
    joined = bt.attach(e, halves[0], [NEXT] * (len(lists[0]) - 1), NEXT, halves[1])
    return joined.data, bt.decode(e, joined)


def list_check(ctx: dict, out: tuple, ref: tuple) -> bool:
    data, tree = out
    ref_data, ref_tree = ref
    return float(np.abs(data - ref_data).max()) <= 1e-9 and tree == ref_tree


def equal(ctx: dict, out: Any, ref: Any) -> bool:
    return ref is not None and out == ref


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tree_roundtrip", TREE_CODE, 2000, tuple(range(1, 17)), 64,
            tree_setup, tree_input, tree_op, equal,
        ),
        Workload(
            "path_query", XF_CODE, 2000, PATH_LENGTHS, 105,
            tree_setup, path_input, path_op, equal, frontier=(4, 5),
        ),
        # Every balanced word of length <= 10 (64 of them) parses and decodes
        # exactly; length 12 is the frontier.
        Workload(
            "vector_parse", PARSE_CODE, 1000, (2, 4, 6, 8, 10), 120,
            parse_setup, parse_input, parse_op, equal, frontier=(12,),
        ),
        # Joined lists stay within c02's lengths 1..8; longer ones are the frontier.
        Workload(
            "list_edit", LIST_CODE, 1000,
            tuple((a, b) for a in range(1, 8) for b in range(1, 9 - a)), 112,
            list_setup, list_input, list_op, list_check,
            frontier=tuple((a, b) for a in range(1, 9) for b in range(1, 9) if a + b > 8),
            check_setup=list_setup_ok,
        ),
    )
}


# --- traced functions -------------------------------------------------------

TRACED = {
    "embedding.make_embedding": ("embedding", "make_embedding"),
    "embedding.bt_encode": ("embedding", "bt_encode"),
    "embedding.encode_list": ("embedding", "encode_list"),
    "embedding.push": ("embedding", "push"),
    "embedding.attach": ("embedding", "attach"),
    "decoder.decode_with_stats": ("decoder", "decode_with_stats"),
    "transformer.run_decoder": ("transformer", "run_decoder"),
    "transformer.build_position_codes": ("transformer", "build_position_codes"),
    "transformer.init_state": ("transformer", "init_state"),
    "transformer.attention_step": ("transformer", "attention_step"),
    "transformer.ffn1": ("transformer", "ffn1"),
    "transformer.ffn2": ("transformer", "ffn2"),
    # defined in decoder; inside the timed operations only run_decoder calls it
    "transformer.decode_token": ("decoder", "decode_token"),
    "parser.parse_vectors": ("parser", "parse_vectors"),
    "parser.match_window": ("parser", "match_window"),
    "parser.window_vector": ("parser", "window_vector"),
    "parser.apply_replacement": ("parser", "apply_replacement"),
    "grammar.compile_rules": ("grammar", "compile_rules"),
    "io.save_embedding": ("io", "save_embedding"),
    "io.load_embedding": ("io", "load_embedding"),
}


def decode_counts(args: tuple, kwargs: dict, result: tuple) -> dict:
    stats = result[1]
    return {"decoder.visits": stats.visits, "decoder.probes": stats.probes, "decoder.nodes": stats.nodes}


def loaded_bytes(args: tuple, kwargs: dict, result: Any) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"io.load_embedding.bytes": os.path.getsize(path)}


OBSERVERS = {"decoder.decode_with_stats": decode_counts, "io.load_embedding": loaded_bytes}


# --- running ----------------------------------------------------------------


def input_stream(w: Workload, ctx: dict, seed: int) -> Iterator[tuple]:
    """Endless (input, reference) pairs, in stratified blocks, from the seed."""
    order = np.random.default_rng(np.random.SeedSequence([seed, w.code, w.dim, len(w.classes)]))
    i = 0
    while True:
        for k in order.permutation(len(w.classes)):
            yield w.make_input(ctx, trial_rng(seed, w.code, w.dim, int(k), i), w.classes[k])
            i += 1


class Client:
    """Runs operations one at a time, checking each output.

    A failed operation is counted, not retried, and reported on stderr with
    its position among the attempted operations.
    """

    def __init__(self, w: Workload, ctx: dict):
        self.w, self.ctx = w, ctx
        self.attempted = 0
        self.failed = 0

    def run(self, pair: tuple) -> float:
        """Run one operation; return its latency in seconds."""
        inp, ref = pair
        start = time.perf_counter()
        try:
            out = self.w.op(self.ctx, inp)
        except OP_FAILURES as exc:
            elapsed = time.perf_counter() - start
            failure = f"{type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            failure = None if self.w.check(self.ctx, out, ref) else "output differs from the reference"
        if failure is not None:
            self.failed += 1
            print(f"perfbench: {self.w.name} operation {self.attempted} failed: {failure}", file=sys.stderr)
        self.attempted += 1
        return elapsed


def build(w: Workload) -> tuple[dict, list[float]]:
    """Set up repeatedly; keep the last build and every set-up time."""
    times: list[float] = []
    ctx = None
    while len(times) < SETUP_MIN_REPEATS or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPEATS):
        ctx = None  # drop the previous build so peak memory holds one
        start = time.perf_counter()
        ctx = w.setup(w.dim)
        times.append(time.perf_counter() - start)
    return ctx, times


def run_untraced(w: Workload, seed: int, seconds: float) -> tuple[dict, Client, bool]:
    ctx, setup_times = build(w)
    client = Client(w, ctx)
    stream = input_stream(w, ctx, seed)
    block = len(w.classes)
    warm_up = [next(stream) for _ in range(min(block, WARMUP_OPS))]
    for pair in warm_up:  # checked but not timed; they are timed again below
        client.run(pair)
    pairs = itertools.chain(warm_up, stream)
    latencies: list[float] = []
    busy = 0.0
    # Time whole blocks only, so that every run has the same class mix.
    while busy < seconds or len(latencies) < MIN_OPS or len(latencies) % block:
        latencies.append(client.run(next(pairs)))
        busy += latencies[-1]
    p50, p95 = np.percentile(latencies, [50, 95]) * 1e3
    # Rate of the median block: a slow spell of the shared host moves a
    # median of blocks less than the run's mean.
    block_times = np.add.reduceat(latencies, range(0, len(latencies), block))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_ops_s": (block / float(np.median(block_times)), "1/s"),
        "latency_p50_ms": (float(p50), "ms"),
        "latency_p95_ms": (float(p95), "ms"),
        "success_rate": ((client.attempted - client.failed) / client.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, client, w.check_setup(ctx)


def run_traced(w: Workload, seed: int) -> tuple[dict, Client, bool]:
    """Set up once and run w.trace_ops operations traced.

    The same operations run untraced first; that pass is the warm-up and the
    base of the reported tracing overhead.
    """
    tracer = Tracer(TRACED, OBSERVERS)
    with tracer.installed():
        ctx = w.setup(w.dim)
    client = Client(w, ctx)
    stream = input_stream(w, ctx, seed)
    pairs = [next(stream) for _ in range(w.trace_ops)]
    plain = sum(client.run(p) for p in pairs)
    with tracer.installed():
        traced = 0.0
        for i, p in enumerate(pairs):
            tracer.op = i
            traced += client.run(p)
    metrics = tracer.layer_metrics()
    counts = tracer.counters
    for key in ("decoder.visits", "decoder.probes", "decoder.nodes", "io.load_embedding.bytes"):
        metrics[key] = (counts[key], "bytes" if key.endswith("bytes") else "count")
    visits = counts["decoder.visits"]
    metrics["decoder.node_yield"] = (counts["decoder.nodes"] / visits if visits else 0.0, "ratio")
    windows = metrics["parser.match_window.calls"][0]
    hits = metrics["parser.apply_replacement.calls"][0]
    metrics["parser.match_hit_ratio"] = (hits / windows if windows else 0.0, "ratio")
    metrics["trace.ops"] = (len(pairs), "count")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_pct"] = ((traced / plain - 1.0) * 100.0, "%")
    tracer.dump(OUT / f"trace_{w.name}_seed{seed}.json")
    return metrics, client, w.check_setup(ctx)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "btembed": str(Path(bt.__file__).resolve().parent),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    if trace:
        metrics, client, setup_ok = run_traced(w, seed)
    else:
        metrics, client, setup_ok = run_untraced(w, seed, seconds)
    return {
        "correct": setup_ok and client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if (ROOT / "src").resolve() not in Path(bt.__file__).resolve().parents:
        print(f"perfbench: btembed imported from {bt.__file__}, not from this checkout", file=sys.stderr)
        return 2
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed}))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
