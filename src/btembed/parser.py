"""Rewriting engine over embedding-space slots.

The engine never sees token names, trees, or schemas, only slot vectors,
compiled rules, the token probe matrix and the argument attribute matrices.
Each slot's head label is read once, by the decoder's THRESHOLD probe, when
the slot is created; a window matches a rule when its head labels spell the
rule's pattern, and a replacement is a sum of matrix-vector products. A slot
that is still a lone token vector is a leaf, and its product is the
embedding's memoized leaf image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import NoParseError, StepBudgetExceededError
from .vectors import BTVector, best_token, checked_data


@dataclass(frozen=True)
class Rule:
    """Compiled rule: pattern token indices and the replacement token vector."""

    pattern: tuple[int, ...]
    replacement: np.ndarray
    name: str = ""


@dataclass(frozen=True)
class RuleSet:
    """Compiled rules plus the embedding's token probes and argument matrices, shared, not copied.

    leaf_images(k, t) is arg_matrices[k] @ head_probes[t], read from the
    embedding's memo.
    """

    rules: tuple[Rule, ...]
    head_probes: np.ndarray
    arg_matrices: tuple[np.ndarray, ...]
    leaf_images: Callable[[int, int], np.ndarray]
    fingerprint: str


@dataclass
class ParseState:
    """Mutable slot list, each slot's head label, and a step counter.

    leaves[i] is slot i's token while the slot is exactly that token's vector,
    else None.
    """

    slots: list[np.ndarray]
    heads: list[int | None]
    leaves: list[int | None]
    steps: int = 0

    @classmethod
    def start(cls, slots: list[np.ndarray], ruleset: RuleSet) -> "ParseState":
        """Label each input slot by its best token probe above THRESHOLD and mark the leaves."""
        heads = [best_token(ruleset.head_probes @ s) for s in slots]
        leaves = [
            h if h is not None and np.array_equal(s, ruleset.head_probes[h]) else None
            for s, h in zip(slots, heads)
        ]
        return cls(slots, heads, leaves)


def match_window(rule: Rule, state: ParseState, j: int) -> bool:
    """Whether the head labels of the slots from j on spell the rule's pattern."""
    return tuple(state.heads[j : j + len(rule.pattern)]) == rule.pattern


def apply_replacement(rule: Rule, state: ParseState, j: int, ruleset: RuleSet) -> None:
    """Collapse the window into one slot holding the replacement node.

    The new slot is the replacement token plus each consumed slot bound under
    its argument attribute, so the parse tree builds up inside the vector.
    The new slot's head label is its best token probe above THRESHOLD, read once, here.
    """
    m = len(rule.pattern)
    new = rule.replacement.copy()
    for k in range(m):
        leaf = state.leaves[j + k]
        if leaf is None:
            new += ruleset.arg_matrices[k] @ state.slots[j + k]
        else:
            new += ruleset.leaf_images(k, leaf)
    state.slots[j : j + m] = [new]
    state.heads[j : j + m] = [best_token(ruleset.head_probes @ new)]
    state.leaves[j : j + m] = [None]
    state.steps += 1


def parse_vectors(slots: list[BTVector], ruleset: RuleSet, max_steps: int | None = None) -> BTVector:
    """Run rules to fixpoint: first rule, leftmost window, restart after each hit.

    Succeeds when exactly one slot remains and nothing matches. Raises
    NoParseError when stuck with several slots, StepBudgetExceededError when
    the rewrite count passes max_steps (default 4 n^2). A slot from another
    embedding or of another dim raises SchemaMismatchError, and one holding
    NaN or inf raises ValueError, as in every other vector operation.
    """
    if not slots:
        raise NoParseError("no input slots")
    fp, dim = ruleset.fingerprint, ruleset.head_probes.shape[1]
    if max_steps is None:
        max_steps = 4 * len(slots) ** 2
    state = ParseState.start([checked_data(v, fp, dim) for v in slots], ruleset)
    while True:
        hit = False
        for rule in ruleset.rules:
            for j in range(len(state.slots) - len(rule.pattern) + 1):
                if match_window(rule, state, j):
                    apply_replacement(rule, state, j, ruleset)
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
