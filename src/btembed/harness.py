"""Experiment harness: round-trip sweeps, the separation probe, CSV output.

Sweeps grid over (dimension, size) cells. Every cell gets its own embedding,
seeded from the sweep's base seed and the cell coordinates, and every trial
gets its own data stream, so reruns of the same spec reproduce byte-identical
results under one BLAS build and thread count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .decoder import decode
from .embedding import Embedding, bt_encode, chain_tree, make_embedding
from .exceptions import BudgetExceededError, InvalidSpecError, NoParseError
from .grammar import (
    MAX_BALANCED_LENGTH,
    balanced_parens_grammar,
    balanced_parens_schema,
    compile_rules,
    parse,
    random_balanced,
    symbolic_parse,
)
from .schema import NEXT, Schema, Tree

SEPARATION_CODE = 4


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for one sweep.

    sizes are list lengths, tree node counts, or balanced-string lengths
    depending on kind. kind names an entry of SWEEPS, which fixes the kind's
    seed code, the schema every cell embeds and the trial.
    """

    kind: str
    dims: tuple[int, ...]
    sizes: tuple[int, ...]
    trials: int
    base_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if self.kind not in SWEEPS:
            raise InvalidSpecError(f"unknown sweep kind {self.kind!r}")
        if not self.dims or any(d < 2 for d in self.dims):
            raise InvalidSpecError("dims must be non-empty, all at least 2")
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise InvalidSpecError("sizes must be non-empty and positive")
        if self.kind == "parse" and any(s % 2 for s in self.sizes):
            raise InvalidSpecError("parse sizes are balanced-string lengths, must be even")
        if self.kind == "parse" and max(self.sizes) > MAX_BALANCED_LENGTH:
            raise InvalidSpecError(f"parse sizes are limited to {MAX_BALANCED_LENGTH}")
        if self.trials < 1:
            raise InvalidSpecError("trials must be positive")
        if self.base_seed < 0:
            raise InvalidSpecError("base_seed must be non-negative")


@dataclass
class CellResult:
    kind: str
    d: int
    l: int
    trials: int
    successes: int
    wall_time_ms: float


@dataclass
class SeparationResult:
    d: int
    depth: int
    samples: int
    max_abs_ip: float
    violations: int


def make_sweep_schema(n_tokens: int, n_attributes: int) -> Schema:
    """Data tokens t0..t{N-1} plus appended attribute tokens next, arg1, ..."""
    if n_tokens < 0 or n_attributes < 1:
        raise ValueError(f"sweep schema needs tokens >= 0 and attributes >= 1, got {n_tokens}, {n_attributes}")
    attrs = [NEXT] + [f"arg{i}" for i in range(1, n_attributes)]
    tokens = [f"t{i}" for i in range(n_tokens)] + attrs
    return Schema(tuple(tokens), tuple(attrs))


def cell_seed(base_seed: int, kind_code: int, d: int, l: int) -> int:
    ss = np.random.SeedSequence([base_seed, kind_code, d, l])
    return int(ss.generate_state(1, np.uint64)[0])


def trial_rng(base_seed: int, kind_code: int, d: int, l: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([base_seed, kind_code, d, l, trial]))


def random_tree(size: int, n_labels: int, n_attributes: int, rng: np.random.Generator) -> Tree:
    """Grow a tree by repeatedly filling a uniformly chosen open slot.

    Open slots are (existing node, unused attribute) pairs, so every shape
    reachable under the one-child-per-attribute constraint has positive
    probability. Each node's (label, attr, parent) row is appended as it is
    drawn, after its parent's, and Tree.from_parents builds the tree.
    """
    for name, value in (("size", size), ("n_labels", n_labels), ("n_attributes", n_attributes)):
        if value < 1:
            raise ValueError(f"random_tree needs {name} >= 1, got {value}")
    rows = [(int(rng.integers(n_labels)), -1, -1)]
    open_slots = [(0, a) for a in range(n_attributes)]
    for _ in range(size - 1):
        parent, attr = open_slots.pop(int(rng.integers(len(open_slots))))
        open_slots.extend((len(rows), a) for a in range(n_attributes))
        rows.append((int(rng.integers(n_labels)), attr, parent))
    return Tree.from_parents(rows)


def _roundtrip(e: Embedding, tree: Tree) -> bool:
    """Whether the tree decodes back from its own vector; a decode over budget is a miss."""
    try:
        return decode(e, bt_encode(e, tree)) == tree
    except BudgetExceededError:
        return False


def list_roundtrip_trial(e: Embedding, length: int, rng: np.random.Generator) -> bool:
    n_labels = e.schema.n_tokens - e.schema.n_attributes
    tokens = [int(x) for x in rng.integers(n_labels, size=length)]
    return _roundtrip(e, chain_tree(e, tokens))


def tree_roundtrip_trial(e: Embedding, size: int, rng: np.random.Generator) -> bool:
    n_labels = e.schema.n_tokens - e.schema.n_attributes
    return _roundtrip(e, random_tree(size, n_labels, e.schema.n_attributes, rng))


def parse_cell(e: Embedding) -> Callable[[int, np.random.Generator], bool]:
    """A parse cell's trial(length, rng), all of whose parses share one rule set."""
    grammar = balanced_parens_grammar()
    ruleset = compile_rules(e, grammar)

    def trial(length: int, rng: np.random.Generator) -> bool:
        word = random_balanced(length, rng)
        reference = symbolic_parse(grammar, word, e.schema)
        try:
            decoded = decode(e, parse(e, word, ruleset))
        except (NoParseError, BudgetExceededError):
            return False
        return reference is not None and decoded == reference

    return trial


# kind -> (the code in every cell and trial seed, the schema every cell
# embeds, the cell's set-up, which takes its embedding and returns
# trial(size, rng)); the seeds, and so the CSVs, depend on the codes
SWEEPS = {
    "list": (1, make_sweep_schema(100, 1), lambda e: partial(list_roundtrip_trial, e)),
    "tree": (2, make_sweep_schema(100, 4), lambda e: partial(tree_roundtrip_trial, e)),
    "parse": (3, balanced_parens_schema(), parse_cell),
}


def run_sweep(spec: SweepSpec) -> list[CellResult]:
    code, schema, make_trial = SWEEPS[spec.kind]
    results = []
    for d in spec.dims:
        for l in spec.sizes:
            start = time.perf_counter()
            e = make_embedding(schema, d, cell_seed(spec.base_seed, code, d, l))
            run_trial = make_trial(e)
            successes = 0
            for trial in range(spec.trials):
                rng = trial_rng(spec.base_seed, code, d, l, trial)
                successes += bool(run_trial(l, rng))
            elapsed_ms = (time.perf_counter() - start) * 1e3
            results.append(
                CellResult(
                    kind=spec.kind,
                    d=d,
                    l=l,
                    trials=spec.trials,
                    successes=successes,
                    wall_time_ms=elapsed_ms,
                )
            )
    return results


def jl_bound(depth: int, samples: int, d: int) -> float:
    """Pairwise overlap bound: plain JL at depth 0, doubled constant for words.

    Powers of one matrix correlate a vector with its own rotations, which
    doubles the constant under the square root.
    """
    if depth == 0:
        return 4.0 * math.sqrt(math.log(samples) / d)
    return math.sqrt(32.0 * math.log(samples) / d)


def _check_probe(depth: int, samples: int) -> None:
    if samples < 2:
        raise InvalidSpecError("separation probe needs at least 2 samples")
    if depth < 0:
        raise InvalidSpecError("depth must be non-negative")


def run_separation_probe(
    e: Embedding, depth: int, samples: int, rng: np.random.Generator
) -> SeparationResult:
    """Max pairwise overlap among random matrix-word images of unit vectors.

    Each sample applies a uniformly drawn attribute word of length 0..depth
    to a fresh random unit vector; well-separated embeddings keep every
    distinct pair under the bound.
    """
    _check_probe(depth, samples)
    d = e.dim
    vs = np.empty((samples, d))
    words = np.full((samples, depth), -1)  # -1 past a word's end
    for i in range(samples):
        vs[i] = rng.standard_normal(d)
        vs[i] /= np.linalg.norm(vs[i])
        length = int(rng.integers(depth + 1))
        words[i, :length] = rng.integers(e.schema.n_attributes, size=length)
    # step s applies every word's s-th letter: one product per attribute
    for letters in words.T:
        for a, m in enumerate(e.attribute_matrices):
            vs[letters == a] = vs[letters == a] @ m.T
    gram = np.abs(vs @ vs.T)
    np.fill_diagonal(gram, 0.0)
    return SeparationResult(
        d=d,
        depth=depth,
        samples=samples,
        max_abs_ip=float(gram.max()),
        violations=int(np.count_nonzero(np.triu(gram, 1) > jl_bound(depth, samples, d))),
    )


def run_separation(
    dim: int, depth: int, samples: int, runs: int, base_seed: int = 0
) -> list[SeparationResult]:
    """One separation probe per run, each on its own embedding of the tree sweep's schema."""
    if runs < 1:
        raise InvalidSpecError("runs must be positive")
    _check_probe(depth, samples)
    schema = make_sweep_schema(100, 4)
    rows = []
    for run in range(runs):
        e = make_embedding(schema, dim, cell_seed(base_seed, SEPARATION_CODE, dim, run))
        rng = trial_rng(base_seed, SEPARATION_CODE, dim, depth, run)
        rows.append(run_separation_probe(e, depth, samples, rng))
    return rows


SWEEP_CSV_HEADER = "kind,d,l,trials,successes,success_rate,wall_time_ms"
SEPARATION_CSV_HEADER = "d,depth,samples,max_abs_ip,jl_bound,violations"


def sweep_csv(results: list[CellResult], timings: bool = False) -> str:
    """Render results; wall time is blank unless asked for, reruns must match."""
    lines = [SWEEP_CSV_HEADER]
    for r in results:
        wall = f"{r.wall_time_ms:.3f}" if timings else ""
        lines.append(
            f"{r.kind},{r.d},{r.l},{r.trials},{r.successes},{r.successes / r.trials:.6f},{wall}"
        )
    return "\n".join(lines) + "\n"


def separation_csv(rows: list[SeparationResult]) -> str:
    lines = [SEPARATION_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.d},{r.depth},{r.samples},{r.max_abs_ip:.6f},"
            f"{jl_bound(r.depth, r.samples, r.d):.6f},{r.violations}"
        )
    return "\n".join(lines) + "\n"
