"""Recovering trees from embedding vectors.

Token probes are inner products against the token matrix. A node is accepted
when its best probe clears the threshold. Its child slots are then probed all
at once through the embedding's child_probes, and only the slots that pass
are entered, by undoing the attribute rotation with the matrix transpose and
recursing, in schema attribute order. An absent subtree simply fails its
probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import Embedding
from .exceptions import BudgetExceededError
from .schema import Tree
from .vectors import BTVector, best_token


@dataclass(frozen=True)
class DecodeConfig:
    """Acceptance threshold and traversal budgets.

    The budgets guard against malformed or adversarial vectors whose noise
    keeps clearing the threshold; a well-formed vector never approaches them.
    """

    threshold: float = 0.5
    max_depth: int = 64
    max_nodes: int = 4096


@dataclass
class DecodeStats:
    """Probe accounting for one decode call.

    probes counts individual token inner products, i.e. visits times the
    token alphabet size.
    """

    visits: int = 0
    probes: int = 0
    nodes: int = 0
    max_depth: int = 0


def decode_token(e: Embedding, v: BTVector | np.ndarray, threshold: float = 0.5) -> int | None:
    """Best token index if its probe clears the threshold, else None."""
    data = v.data if isinstance(v, BTVector) else np.asarray(v)
    return best_token(e.token_vectors @ data, threshold)


def decode(e: Embedding, v: BTVector, config: DecodeConfig = DecodeConfig()) -> Tree | None:
    """Reconstruct the tree behind v, or None when the root probe fails."""
    tree, _ = decode_with_stats(e, v, config)
    return tree


def decode_with_stats(
    e: Embedding, v: BTVector, config: DecodeConfig = DecodeConfig()
) -> tuple[Tree | None, DecodeStats]:
    """Decode v and count the work.

    One child_probes product scores every child slot of an accepted node,
    and only the slots that pass are rotated into, so a tree of n nodes costs
    n - 1 dim x dim products. A visit is one slot probed (the root counts as
    one), and budgets are checked on each accepted node, depth first.
    """
    data = e.check(v)
    stats = DecodeStats()
    n_attrs, n_tokens = e.schema.n_attributes, e.schema.n_tokens

    def probe(scores: np.ndarray) -> int | None:
        stats.visits += 1
        stats.probes += n_tokens
        return best_token(scores, config.threshold)

    def explore(u: np.ndarray, label: int, depth: int) -> Tree:
        if depth > config.max_depth:
            raise BudgetExceededError(f"decode exceeded max_depth {config.max_depth}")
        stats.nodes += 1
        if stats.nodes > config.max_nodes:
            raise BudgetExceededError(f"decode exceeded max_nodes {config.max_nodes}")
        stats.max_depth = max(stats.max_depth, depth)
        slot_scores = (e.child_probes @ u).reshape(n_attrs, n_tokens)
        children = []
        for attr in range(n_attrs):
            child = probe(slot_scores[attr])
            if child is not None:
                sub = explore(e.attribute_matrices[attr].T @ u, child, depth + 1)
                children.append((attr, sub))
        return Tree(label, tuple(children))

    root = probe(e.token_vectors @ data)
    return (None if root is None else explore(data, root, 0)), stats
