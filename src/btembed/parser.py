"""Rewriting engine over embedding-space slots, and the one rewrite schedule.

The engine never sees token names, trees, or schemas, only slot vectors,
compiled rules, the token probe matrix and the embedding's binding. An
input slot's head label is read once, by the decoder's THRESHOLD probe. The
schedule, rewrites, picks every rewrite from head labels alone: a window
matches a rule when its labels spell the rule's pattern, and a rewritten
slot's label is the rule's token, not a probe, which the bound members'
cross terms could mislead. parse_vectors applies each rewrite to vectors,
binding each window member under its argument attribute (the node formula
of bt_encode); grammar.symbolic_parse applies the same rewrites to trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .exceptions import NoParseError, StepBudgetExceededError
from .vectors import BTVector, best_token, checked_data


@dataclass(frozen=True)
class Rule:
    """Compiled rule: pattern token indices and the replacement token index."""

    pattern: tuple[int, ...]
    replacement: int


@dataclass(frozen=True)
class RuleSet:
    """Compiled rules, the embedding's token probes, and its binding.

    bind(k, slot) is slot's term under the k-th argument attribute. It may
    be a memo entry (compile_rules keeps its rules' nodes over input tokens
    and their images), so the engine reads it and never writes it.
    """

    rules: tuple[Rule, ...]
    head_probes: np.ndarray
    bind: Callable[[int, np.ndarray], np.ndarray]
    fingerprint: str


def match_window(rule: Rule, heads: list[int | None], j: int) -> bool:
    """Whether the head labels from j on spell the rule's pattern."""
    return tuple(heads[j : j + len(rule.pattern)]) == rule.pattern


def apply_replacement(rule: Rule, slots: list[np.ndarray], j: int, ruleset: RuleSet) -> None:
    """Collapse the window into one slot holding the replacement node.

    The new slot is the replacement token plus each consumed slot bound under
    its argument attribute, so the parse tree builds up inside the vector.
    """
    m = len(rule.pattern)
    new = ruleset.head_probes[rule.replacement].copy()
    for k in range(m):
        new += ruleset.bind(k, slots[j + k])
    slots[j : j + m] = [new]


def step_budget(n: int, patterns: list[tuple[int, ...]]) -> int:
    """Rewrites a parse of n slots may make: (n - 1) + u (2n - 1), u the unary patterns.

    At most n - 1 rewrites shrink the slot list, so at most 2n - 1 slots are
    made; with exact heads and acyclic unary rules, each slot uses each unary
    rule at most once. No terminating parse of such rules makes more.
    """
    u = sum(len(p) == 1 for p in patterns)
    return (n - 1) + u * (2 * n - 1)


def rewrites(heads: list[int | None], rules: tuple[Rule, ...]) -> Iterator[tuple[Rule, int]]:
    """Rewrite to fixpoint: first rule, leftmost window, restart after each hit.

    Yields (rule, j) for each rewrite of the window at j; once the caller has
    applied it, the window's labels in heads collapse to the rule's
    replacement. Raises StepBudgetExceededError on the rewrite past
    step_budget of the input heads.
    """
    budget, steps = step_budget(len(heads), [r.pattern for r in rules]), 0
    while True:
        windows = ((r, j) for r in rules for j in range(len(heads) - len(r.pattern) + 1))
        hit = next(((r, j) for r, j in windows if match_window(r, heads, j)), None)
        if hit is None:
            return
        steps += 1
        if steps > budget:
            raise StepBudgetExceededError(f"exceeded {budget} rewrite steps")
        rule, j = hit
        yield rule, j
        heads[j : j + len(rule.pattern)] = [rule.replacement]


def parse_vectors(slots: list[BTVector], ruleset: RuleSet) -> BTVector:
    """Apply the rewrites of the slots' head labels to the slots themselves.

    Succeeds when exactly one slot remains and nothing matches. Raises
    NoParseError when stuck with several slots, StepBudgetExceededError once
    the rewrites outnumber step_budget. A slot from another embedding or of
    another dim raises SchemaMismatchError, and one holding NaN or inf
    raises ValueError, as in every other vector operation.
    """
    if not slots:
        raise NoParseError("no input slots")
    fp, dim = ruleset.fingerprint, ruleset.head_probes.shape[1]
    data = [checked_data(v, fp, dim) for v in slots]
    heads = [best_token(ruleset.head_probes @ s) for s in data]
    for rule, j in rewrites(heads, ruleset.rules):
        apply_replacement(rule, data, j, ruleset)
    if len(data) == 1:
        return BTVector(data[0], fp)
    raise NoParseError(f"stuck with {len(data)} slots and no match")
