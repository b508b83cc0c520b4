"""Recovering trees from embedding vectors.

Token probes are inner products against the token matrix. A node is accepted
when its best probe clears the threshold; children are then explored by
undoing each attribute rotation with the matrix transpose and recursing, in
schema attribute order. An absent subtree simply fails its root probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import Embedding
from .exceptions import BudgetExceededError
from .schema import Tree
from .vectors import BTVector


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
    """Best token index if its probe clears the threshold, else None.

    Ties take the lowest index.
    """
    data = v.data if isinstance(v, BTVector) else np.asarray(v)
    scores = e.token_vectors @ data
    best = int(np.argmax(scores))
    return best if scores[best] > threshold else None


def decode(e: Embedding, v: BTVector, config: DecodeConfig = DecodeConfig()) -> Tree | None:
    """Reconstruct the tree behind v, or None when the root probe fails."""
    tree, _ = decode_with_stats(e, v, config)
    return tree


def decode_with_stats(
    e: Embedding, v: BTVector, config: DecodeConfig = DecodeConfig()
) -> tuple[Tree | None, DecodeStats]:
    data = e.check(v)
    stats = DecodeStats()
    n_attrs = e.schema.n_attributes

    def explore(u: np.ndarray, depth: int) -> Tree | None:
        stats.visits += 1
        stats.probes += e.schema.n_tokens
        label = decode_token(e, u, config.threshold)
        if label is None:
            return None
        if depth > config.max_depth:
            raise BudgetExceededError(f"decode exceeded max_depth {config.max_depth}")
        stats.nodes += 1
        if stats.nodes > config.max_nodes:
            raise BudgetExceededError(f"decode exceeded max_nodes {config.max_nodes}")
        stats.max_depth = max(stats.max_depth, depth)
        children = []
        for attr in range(n_attrs):
            sub = explore(e.attribute_matrices[attr].T @ u, depth + 1)
            if sub is not None:
                children.append((attr, sub))
        return Tree(label, tuple(children))

    return explore(data, 0), stats
