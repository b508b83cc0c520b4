"""Recovering trees from embedding vectors.

Token probes are inner products against the token matrix. A node is accepted
when its best probe clears the threshold. Its child slots are probed all at
once, through the embedding's child_probes at the root and its
grandchild_probes below, and the slots that pass are entered in schema
attribute order, depth first. Undoing a node's attribute rotation with the
matrix transpose waits until one of the node's own child slots passes, so a
leaf costs no dim x dim product. An absent subtree simply fails its probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .embedding import Embedding
from .exceptions import BudgetExceededError
from .schema import Tree, fold_postorder
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
    """Best token index if its probe clears the threshold, else None.

    A BTVector is checked against e first; a bare array is taken as is.
    """
    data = e.check(v) if isinstance(v, BTVector) else np.asarray(v)
    return best_token(e.token_vectors @ data, threshold)


def decode(e: Embedding, v: BTVector, config: DecodeConfig = DecodeConfig()) -> Tree | None:
    """Reconstruct the tree behind v, or None when the root probe fails."""
    tree, _ = decode_with_stats(e, v, config)
    return tree


def decode_with_stats(
    e: Embedding, v: BTVector, config: DecodeConfig = DecodeConfig()
) -> tuple[Tree | None, DecodeStats]:
    """Decode v and count the work.

    One child_probes product scores every child slot of the root. A child
    slot that passes gets its own slots scored by one grandchild_probes
    product on its parent's vector, and is rotated into only when one of
    those passes, so a tree costs one dim x dim product per non-root internal
    node. A visit is one slot probed (the root counts as one), and budgets are
    checked on each accepted node, depth first in attribute order.
    """
    data = e.check(v)
    stats = DecodeStats()
    n_attrs, n_tokens = e.schema.n_attributes, e.schema.n_tokens

    def probe(scores: np.ndarray) -> int | None:
        stats.visits += 1
        stats.probes += n_tokens
        return best_token(scores, config.threshold)

    def accept(depth: int) -> None:
        if depth > config.max_depth:
            raise BudgetExceededError(f"decode exceeded max_depth {config.max_depth}")
        stats.nodes += 1
        if stats.nodes > config.max_nodes:
            raise BudgetExceededError(f"decode exceeded max_nodes {config.max_nodes}")
        stats.max_depth = max(stats.max_depth, depth)

    def children(node: _Node) -> Iterator[_Node]:
        for attr in range(n_attrs):
            label = probe(node.scores[attr])
            if label is not None:
                accept(node.depth + 1)
                scores = e.grandchild_probes(attr) @ node.frame(e)
                yield _Node(label, node.depth + 1, scores.reshape(n_attrs, n_tokens), attr, node)

    def build(node: _Node, subs: list[tuple[int, Tree]]) -> tuple[int, Tree]:
        return node.attr, Tree(node.label, tuple(subs))

    root = probe(e.token_vectors @ data)
    if root is None:
        return None, stats
    accept(0)
    top = _Node(root, 0, (e.child_probes @ data).reshape(n_attrs, n_tokens), u=data)
    return fold_postorder(top, children, build)[1], stats


@dataclass
class _Node:
    """An accepted node: its label, depth and the probe scores of its child slots.

    u, the node's own view of the vector, is made from its parent's only when
    first needed, which is when one of its child slots passes: a leaf is never
    rotated into.
    """

    label: int
    depth: int
    scores: np.ndarray
    attr: int = -1
    parent: "_Node | None" = None
    u: np.ndarray | None = None

    def frame(self, e: Embedding) -> np.ndarray:
        if self.u is None:
            self.u = e.attribute_matrices[self.attr].T @ self.parent.frame(e)
        return self.u
