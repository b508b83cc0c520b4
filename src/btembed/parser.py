"""Rewriting engine over embedding-space slots.

The engine never sees tokens, trees, or schemas. It works with exactly four
kinds of data: input slot vectors, compiled rule vectors, the next-shift
matrix, and the argument attribute matrices. Match tests and replacements are
all inner products and matrix-vector products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import NoParseError, SchemaMismatchError, StepBudgetExceededError
from .vectors import BTVector


@dataclass(frozen=True)
class Rule:
    """Compiled rule: chain-encoded pattern, replacement token vector, arity."""

    pattern: np.ndarray
    replacement: np.ndarray
    arity: int
    name: str = ""


@dataclass(frozen=True)
class RuleSet:
    """Compiled rules plus the embedding's next and argument matrices, shared, not copied."""

    rules: tuple[Rule, ...]
    next_matrix: np.ndarray
    arg_matrices: tuple[np.ndarray, ...]
    fingerprint: str


@dataclass
class ParseState:
    """Mutable slot list with a step counter."""

    slots: list[np.ndarray]
    steps: int = field(default=0)


def window_vector(state: ParseState, j: int, m: int, next_matrix: np.ndarray) -> np.ndarray:
    """Chain-combine slots j..j+m-1 exactly like a freshly encoded list."""
    acc = state.slots[j + m - 1]
    for k in range(m - 2, -1, -1):
        acc = state.slots[j + k] + next_matrix @ acc
    return acc


def match_window(rule: Rule, state: ParseState, j: int, next_matrix: np.ndarray) -> bool:
    """Inner-product test against the current slots, recomputed per call."""
    m = rule.arity
    if j + m > len(state.slots):
        return False
    x = window_vector(state, j, m, next_matrix)
    return float(rule.pattern @ x) > m - 0.5


def apply_replacement(rule: Rule, state: ParseState, j: int, arg_matrices: tuple[np.ndarray, ...]) -> None:
    """Collapse the window into one slot holding the replacement node.

    The new slot is the replacement token plus each consumed slot bound under
    its argument attribute, so the parse tree builds up inside the vector.
    """
    m = rule.arity
    new = rule.replacement.copy()
    for k in range(m):
        new += arg_matrices[k] @ state.slots[j + k]
    state.slots[j : j + m] = [new]
    state.steps += 1


def parse_vectors(slots: list[BTVector], ruleset: RuleSet, max_steps: int | None = None) -> BTVector:
    """Run rules to fixpoint: first rule, leftmost window, restart after each hit.

    Succeeds when exactly one slot remains and nothing matches. Raises
    NoParseError when stuck with several slots, StepBudgetExceededError when
    the rewrite count passes max_steps (default 4 n^2).
    """
    if not slots:
        raise NoParseError("no input slots")
    fp = ruleset.fingerprint
    for v in slots:
        if v.fingerprint != fp:
            raise SchemaMismatchError("slot fingerprint does not match ruleset")
    if max_steps is None:
        max_steps = 4 * len(slots) ** 2
    state = ParseState([v.data for v in slots])
    while True:
        hit = False
        for rule in ruleset.rules:
            for j in range(len(state.slots) - rule.arity + 1):
                if match_window(rule, state, j, ruleset.next_matrix):
                    apply_replacement(rule, state, j, ruleset.arg_matrices)
                    if state.steps > max_steps:
                        raise StepBudgetExceededError(
                            f"exceeded {max_steps} rewrite steps"
                        )
                    hit = True
                    break
            if hit:
                break
        if not hit:
            if len(state.slots) == 1:
                return BTVector(state.slots[0], fp)
            raise NoParseError(f"stuck with {len(state.slots)} slots and no match")
