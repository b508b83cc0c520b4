"""Recovering trees from embedding vectors.

Token probes are inner products against the token matrix. A node is accepted
when its best probe clears THRESHOLD. Its child slots are probed all at
once, through one of the embedding's slot_probes tables applied to the
frame of its ancestor probe_depth levels up, or of the root. So the vector
is rotated with a matrix transpose into a frame only for a non-root node of
height >= probe_depth, once each: a tree no more than probe_depth levels
deep costs no dim x dim product. An absent subtree simply fails its probe.
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

    Each accepted node goes into one record as (label, attr, parent),
    parents before children, and the tree is Tree.from_parents(record). A
    node's child slots are scored by slot_probes(path) @ frame, where frame
    is its anchor's vector M^T-rotated from the root and path leads from the
    anchor to the node. The anchor is the node's ancestor probe_depth levels
    up, or the root for a shallower node: when a child's path would outgrow
    probe_depth, the anchor moves one node down that path. Its frame is
    rotated from its parent's, and every frame is kept, so exactly the
    non-root nodes of height >= probe_depth cost one dim x dim product each.
    More than min(d, 2||v||^2 + 1) accepted nodes, the root counted, raise
    BudgetExceededError; as depth < nodes, that bounds depth too. A tree's
    ||v||^2 is its node count give or take sqrt(2n(n-1)/d), and no d-dim
    vector holds more than d orthogonal node contributions.
    """
    data = e.check(v)
    with np.errstate(over="ignore"):  # a finite v's ||v||^2 may be inf; min then gives d
        budget = int(min(e.dim, 2 * float(data @ data) + 1))
    n_attrs, n_tokens = e.schema.n_attributes, e.schema.n_tokens
    root = best_token(e.token_vectors @ data)
    if root is None:
        return None, DecodeStats(visits=1, probes=n_tokens)
    record = [(root, -1, -1)]
    depths = [0]
    frames = {0: data}

    def make_frame(i: int) -> None:
        way = []
        while i not in frames:
            way.append(i)
            i = record[i][2]
        for j in reversed(way):
            _, attr, parent = record[j]
            frames[j] = e.attribute_matrices[attr].T @ frames[parent]

    stack = [(0, 0, (), e.slot_probes() @ data)]
    while stack:
        if len(record) > budget:
            raise BudgetExceededError(f"decode accepted over min(d, 2|v|^2 + 1) = {budget} nodes")
        i, anchor, path, scores = stack.pop()
        for attr, slot in enumerate(scores.reshape(n_attrs, n_tokens)):
            label = best_token(slot)
            if label is not None:
                if len(path) == e.probe_depth:
                    # the anchor moves one node down the path, to the child's ancestor probe_depth levels up
                    anchor = i
                    for _ in path[1:]:
                        anchor = record[anchor][2]
                    make_frame(anchor)
                    path = path[1:]
                child = (*path, attr)
                stack.append((len(record), anchor, child, e.slot_probes(child) @ frames[anchor]))
                record.append((label, attr, i))
                depths.append(depths[i] + 1)

    visits = 1 + n_attrs * len(record)
    stats = DecodeStats(visits, visits * n_tokens, len(record), max(depths))
    return Tree.from_parents(record), stats
