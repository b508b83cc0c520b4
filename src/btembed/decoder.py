"""Recovering trees from embedding vectors.

Token probes are inner products against the token matrix. A node is accepted
when its best probe clears THRESHOLD. Its child slots are probed all at
once, through the embedding's child_probes at the root and its
grandchild_probes below. Undoing a node's attribute rotation with the
matrix transpose waits until one of the node's own child slots passes, so a
leaf costs no dim x dim product. An absent subtree simply fails its probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import Embedding
from .exceptions import BudgetExceededError
from .schema import Tree
from .vectors import BTVector, best_token

@dataclass
class DecodeStats:
    """Probe accounting for one decode call.

    A visit is one slot probed: the root, then every child slot of every
    accepted node, so visits is 1 + n_attributes * nodes. probes counts
    individual token inner products, i.e. visits times the token alphabet size.
    """

    visits: int = 0
    probes: int = 0
    nodes: int = 0
    max_depth: int = 0


def decode_token(e: Embedding, v: BTVector | np.ndarray) -> int | None:
    """Best token index if its probe clears THRESHOLD, else None.

    A BTVector is checked against e first; a bare array is taken as is.
    """
    data = e.check(v) if isinstance(v, BTVector) else np.asarray(v)
    return best_token(e.token_vectors @ data)


def decode(e: Embedding, v: BTVector) -> Tree | None:
    """Reconstruct the tree behind v, or None when the root probe fails."""
    tree, _ = decode_with_stats(e, v)
    return tree


def decode_with_stats(e: Embedding, v: BTVector) -> tuple[Tree | None, DecodeStats]:
    """Decode v and count the work.

    Each accepted node goes into one record as (label, attr, parent, depth),
    parents before children, and the tree and stats are built from it. One
    child_probes product scores every child slot of the root. A child that
    passes gets its own slots scored by one grandchild_probes product on its
    parent's frame, and its frame, M_attr^T times its parent's, is made only
    when one of those passes: one dim x dim product per non-root internal
    node. More than min(d, 2||v||^2 + 1) accepted nodes, the root counted,
    raise BudgetExceededError; as depth < nodes, that bounds depth too. A
    tree's ||v||^2 is its node count give or take sqrt(2n(n-1)/d), and no
    d-dim vector holds more than d orthogonal node contributions.
    """
    data = e.check(v)
    with np.errstate(over="ignore"):  # a finite v's ||v||^2 may be inf; min then gives d
        budget = int(min(e.dim, 2 * float(data @ data) + 1))
    n_attrs, n_tokens = e.schema.n_attributes, e.schema.n_tokens
    root = best_token(e.token_vectors @ data)
    if root is None:
        return None, DecodeStats(visits=1, probes=n_tokens)
    record = [(root, -1, -1, 0)]
    frames = {0: data}
    stack = [(0, e.child_probes @ data)]
    while stack:
        if len(record) > budget:
            raise BudgetExceededError(f"decode accepted over min(d, 2|v|^2 + 1) = {budget} nodes")
        i, scores = stack.pop()
        _, attr_i, parent, depth = record[i]
        for attr, slot in enumerate(scores.reshape(n_attrs, n_tokens)):
            label = best_token(slot)
            if label is not None:
                if i not in frames:
                    frames[i] = e.attribute_matrices[attr_i].T @ frames[parent]
                stack.append((len(record), e.grandchild_probes(attr) @ frames[i]))
                record.append((label, attr, i, depth + 1))

    # children come after their parent, so a backward pass meets each node
    # with its subtrees done; a parent's children sit together in attr order
    subs: list[list[tuple[int, Tree]]] = [[] for _ in record]
    for i in range(len(record) - 1, 0, -1):
        label, attr, parent, _ = record[i]
        subs[parent].append((attr, Tree(label, tuple(reversed(subs[i])))))
    visits = 1 + n_attrs * len(record)
    stats = DecodeStats(visits, visits * n_tokens, len(record), max(r[3] for r in record))
    return Tree(root, tuple(reversed(subs[0]))), stats
