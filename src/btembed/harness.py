"""Experiment harness: round-trip sweeps, the separation probe, CSV output.

Sweeps grid over (dimension, size) cells. Every cell gets its own embedding,
seeded from the sweep's base seed and the cell coordinates, and every trial
gets its own data stream, so reruns of the same spec reproduce byte-identical
results on any machine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .decoder import decode
from .embedding import Embedding, bt_encode, chain_tree, encode_list, make_embedding
from .exceptions import (
    BudgetExceededError,
    InvalidSpecError,
    NoParseError,
    StepBudgetExceededError,
)
from .grammar import (
    MAX_BALANCED_LENGTH,
    balanced_parens_grammar,
    balanced_parens_schema,
    compile_rules,
    parse,
    random_balanced,
    symbolic_parse,
)
from .parser import RuleSet
from .schema import NEXT, Schema, Tree

KIND_CODES = {"list": 1, "tree": 2, "parse": 3}
SEPARATION_CODE = 4


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for one sweep.

    sizes are list lengths, tree node counts, or balanced-string lengths
    depending on kind. Each kind runs on its acceptance suite's schema: lists
    on make_sweep_schema(100, 1), trees on make_sweep_schema(100, 4), parses
    on the balanced-parens schema.
    """

    kind: str
    dims: tuple[int, ...]
    sizes: tuple[int, ...]
    trials: int
    base_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if self.kind not in KIND_CODES:
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
    success_rate: float
    wall_time_ms: float


@dataclass
class SeparationResult:
    d: int
    depth: int
    samples: int
    max_abs_ip: float
    jl_bound: float
    violations: int


def make_sweep_schema(n_tokens: int, n_attributes: int) -> Schema:
    """Data tokens t0..t{N-1} plus appended attribute tokens next, arg1, ..."""
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
    probability. A child's index exceeds its parent's, so nodes are built in
    reverse index order.
    """
    labels = [int(rng.integers(n_labels))]
    children: list[dict[int, int]] = [{}]
    open_slots = [(0, a) for a in range(n_attributes)]
    for _ in range(size - 1):
        pick = int(rng.integers(len(open_slots)))
        parent, attr = open_slots.pop(pick)
        labels.append(int(rng.integers(n_labels)))
        children.append({})
        node = len(labels) - 1
        children[parent][attr] = node
        open_slots.extend((node, a) for a in range(n_attributes))
    trees: list[Tree] = [Tree(0)] * len(labels)
    for i in reversed(range(len(labels))):
        trees[i] = Tree.make(labels[i], {a: trees[j] for a, j in children[i].items()})
    return trees[0]


def list_roundtrip_trial(e: Embedding, length: int, rng: np.random.Generator) -> bool:
    n_labels = e.schema.n_tokens - e.schema.n_attributes
    tokens = [int(x) for x in rng.integers(n_labels, size=length)]
    v = encode_list(e, tokens)
    try:
        decoded = decode(e, v)
    except BudgetExceededError:
        return False
    return decoded == chain_tree(e, tokens)


def tree_roundtrip_trial(e: Embedding, size: int, rng: np.random.Generator) -> bool:
    n_labels = e.schema.n_tokens - e.schema.n_attributes
    tree = random_tree(size, n_labels, e.schema.n_attributes, rng)
    v = bt_encode(e, tree)
    try:
        decoded = decode(e, v)
    except BudgetExceededError:
        return False
    return decoded == tree


def parse_roundtrip_trial(
    cell: tuple[Embedding, RuleSet], length: int, rng: np.random.Generator
) -> bool:
    e, ruleset = cell
    word = random_balanced(length, rng)
    reference = symbolic_parse(balanced_parens_grammar(), word, e.schema)
    try:
        v = parse(e, word, ruleset)
        decoded = decode(e, v)
    except (NoParseError, StepBudgetExceededError, BudgetExceededError):
        return False
    return reference is not None and decoded == reference


def _list_cell(d: int, seed: int) -> Embedding:
    return make_embedding(make_sweep_schema(100, 1), d, seed)


def _tree_cell(d: int, seed: int) -> Embedding:
    return make_embedding(make_sweep_schema(100, 4), d, seed)


def _parse_cell(d: int, seed: int) -> tuple[Embedding, RuleSet]:
    e = make_embedding(balanced_parens_schema(), d, seed)
    return e, compile_rules(e, balanced_parens_grammar())


# kind -> (cell builder(d, seed), trial(cell, size, rng))
SWEEPS = {
    "list": (_list_cell, list_roundtrip_trial),
    "tree": (_tree_cell, tree_roundtrip_trial),
    "parse": (_parse_cell, parse_roundtrip_trial),
}


def run_sweep(spec: SweepSpec) -> list[CellResult]:
    build_cell, run_trial = SWEEPS[spec.kind]
    code = KIND_CODES[spec.kind]
    results = []
    for d in spec.dims:
        for l in spec.sizes:
            start = time.perf_counter()
            cell = build_cell(d, cell_seed(spec.base_seed, code, d, l))
            successes = 0
            for trial in range(spec.trials):
                rng = trial_rng(spec.base_seed, code, d, l, trial)
                successes += bool(run_trial(cell, l, rng))
            elapsed_ms = (time.perf_counter() - start) * 1e3
            results.append(
                CellResult(
                    kind=spec.kind,
                    d=d,
                    l=l,
                    trials=spec.trials,
                    successes=successes,
                    success_rate=successes / spec.trials,
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


def run_separation_probe(
    e: Embedding, depth: int, samples: int, rng: np.random.Generator
) -> SeparationResult:
    """Max pairwise overlap among random matrix-word images of unit vectors.

    Each sample applies a uniformly drawn attribute word of length 0..depth
    to a fresh random unit vector; well-separated embeddings keep every
    distinct pair under the bound.
    """
    if samples < 2:
        raise InvalidSpecError("separation probe needs at least 2 samples")
    if depth < 0:
        raise InvalidSpecError("depth must be non-negative")
    d = e.dim
    vs = np.empty((samples, d))
    for i in range(samples):
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        length = int(rng.integers(depth + 1))
        for a in rng.integers(e.schema.n_attributes, size=length):
            u = e.attribute_matrices[int(a)] @ u
        vs[i] = u
    gram = np.abs(vs @ vs.T)
    np.fill_diagonal(gram, 0.0)
    bound = jl_bound(depth, samples, d)
    return SeparationResult(
        d=d,
        depth=depth,
        samples=samples,
        max_abs_ip=float(gram.max()),
        jl_bound=bound,
        violations=int(np.count_nonzero(np.triu(gram, 1) > bound)),
    )


SWEEP_CSV_HEADER = "kind,d,l,trials,successes,success_rate,wall_time_ms"
SEPARATION_CSV_HEADER = "d,depth,samples,max_abs_ip,jl_bound,violations"


def sweep_csv(results: list[CellResult], timings: bool = False) -> str:
    """Render results; wall time is blank unless asked for, reruns must match."""
    lines = [SWEEP_CSV_HEADER]
    for r in results:
        wall = f"{r.wall_time_ms:.3f}" if timings else ""
        lines.append(
            f"{r.kind},{r.d},{r.l},{r.trials},{r.successes},{r.success_rate:.6f},{wall}"
        )
    return "\n".join(lines) + "\n"


def separation_csv(rows: list[SeparationResult]) -> str:
    lines = [SEPARATION_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.d},{r.depth},{r.samples},{r.max_abs_ip:.6f},{r.jl_bound:.6f},{r.violations}"
        )
    return "\n".join(lines) + "\n"
