"""Rewriting engine over embedding-space slots.

The engine never sees token names, trees, or schemas, only slot vectors,
compiled rules, the token probe matrix and the embedding's binding. An
input slot's head label is read once, by the decoder's THRESHOLD probe; a
window matches a rule when its head labels spell the rule's pattern, and a
replacement binds each window member under its argument attribute, the node
formula of bt_encode, and takes the rule's token as its head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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

    bind(k, slot) is slot's term under the k-th argument attribute.
    """

    rules: tuple[Rule, ...]
    head_probes: np.ndarray
    bind: Callable[[int, np.ndarray], np.ndarray]
    fingerprint: str


@dataclass
class ParseState:
    """Mutable slot list, each slot's head label, and a step counter."""

    slots: list[np.ndarray]
    heads: list[int | None]
    steps: int = 0

    @classmethod
    def start(cls, slots: list[np.ndarray], ruleset: RuleSet) -> "ParseState":
        """Label each input slot by its best token probe above THRESHOLD."""
        return cls(slots, [best_token(ruleset.head_probes @ s) for s in slots])


def match_window(rule: Rule, state: ParseState, j: int) -> bool:
    """Whether the head labels of the slots from j on spell the rule's pattern."""
    return tuple(state.heads[j : j + len(rule.pattern)]) == rule.pattern


def apply_replacement(rule: Rule, state: ParseState, j: int, ruleset: RuleSet) -> None:
    """Collapse the window into one slot holding the replacement node.

    The new slot is the replacement token plus each consumed slot bound under
    its argument attribute, so the parse tree builds up inside the vector.
    Its head label is the replacement token the rule wrote, not a probe,
    which the bound members' cross terms could mislead.
    """
    m = len(rule.pattern)
    new = ruleset.head_probes[rule.replacement].copy()
    for k in range(m):
        new += ruleset.bind(k, state.slots[j + k])
    state.slots[j : j + m] = [new]
    state.heads[j : j + m] = [rule.replacement]
    state.steps += 1


def step_budget(n: int, patterns: list[tuple[int, ...]]) -> int:
    """Rewrites a parse of n slots may make: (n - 1) + u (2n - 1), u the unary patterns.

    At most n - 1 rewrites shrink the slot list, so at most 2n - 1 slots are
    made; with exact heads and acyclic unary rules, each slot uses each unary
    rule at most once. No terminating parse of such rules makes more.
    """
    u = sum(len(p) == 1 for p in patterns)
    return (n - 1) + u * (2 * n - 1)


def parse_vectors(slots: list[BTVector], ruleset: RuleSet) -> BTVector:
    """Run rules to fixpoint: first rule, leftmost window, restart after each hit.

    Succeeds when exactly one slot remains and nothing matches. Raises
    NoParseError when stuck with several slots, StepBudgetExceededError once
    the rewrites outnumber step_budget. A slot from another embedding or of
    another dim raises SchemaMismatchError, and one holding NaN or inf
    raises ValueError, as in every other vector operation.
    """
    if not slots:
        raise NoParseError("no input slots")
    fp, dim = ruleset.fingerprint, ruleset.head_probes.shape[1]
    budget = step_budget(len(slots), [r.pattern for r in ruleset.rules])
    state = ParseState.start([checked_data(v, fp, dim) for v in slots], ruleset)
    while True:
        hit = False
        for rule in ruleset.rules:
            for j in range(len(state.slots) - len(rule.pattern) + 1):
                if match_window(rule, state, j):
                    apply_replacement(rule, state, j, ruleset)
                    if state.steps > budget:
                        raise StepBudgetExceededError(f"exceeded {budget} rewrite steps")
                    hit = True
                    break
            if hit:
                break
        if not hit:
            if len(state.slots) == 1:
                return BTVector(state.slots[0], fp)
            raise NoParseError(f"stuck with {len(state.slots)} slots and no match")
