"""Embeddings: token vectors, orthogonal attribute matrices, and the algebra.

A tree embeds as a superposition of its nodes. Each node contributes its
token vector rotated by the product of the attribute matrices along the path
from the root, taken left to right. Because the matrices are orthogonal the
per-node contributions keep unit norm, and in high dimension they are nearly
orthogonal to each other, which is what makes decoding possible.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .exceptions import DimensionTooSmallError
from .schema import NEXT, Schema, Tree
from .vectors import BTVector, checked_data, read_only

GENERATOR_NAME = "philox"
_MAX_SEED = 2**64 - 1


def haar_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an orthogonal matrix uniformly with respect to Haar measure.

    QR of a standard Gaussian matrix, with each column of Q multiplied by the
    sign of the matching diagonal entry of R. The sign correction removes the
    factorization's convention bias; without it the distribution is not Haar.
    """
    g = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diagonal(r))
    signs[signs == 0] = 1.0
    return q * signs


def embedding_fingerprint(schema: Schema, dim: int, seed: int) -> str:
    """Hex digest identifying an embedding; arrays are determined by these inputs."""
    h = hashlib.sha256()
    h.update(schema.digest())
    h.update(struct.pack("<IQ", dim, seed))
    return h.hexdigest()


@dataclass(frozen=True)
class Embedding:
    """Frozen bundle of schema, token vectors, and attribute matrices.

    token_vectors has shape (n_tokens, dim) with unit rows. attribute_matrices
    has shape (n_attributes, dim, dim); each slice is orthogonal, so its
    inverse is its transpose. Both are stored as read-only views, so every
    operation, rule set and vector shares the one fixed set of arrays.
    """

    schema: Schema
    dim: int
    seed: int
    token_vectors: np.ndarray
    attribute_matrices: np.ndarray
    fingerprint: str

    def __post_init__(self) -> None:
        for name in ("token_vectors", "attribute_matrices"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

    @cached_property
    def child_probes(self) -> np.ndarray:
        """Token probes of every child slot, shape (n_attributes * n_tokens, dim).

        Row a * n_tokens + t is token_vectors[t] @ attribute_matrices[a].T, so
        child_probes @ u scores token t in child slot a of u without rotating
        u. Built on first use and kept read-only, so making or loading an
        embedding never pays for it.
        """
        probes = self.token_vectors @ self.attribute_matrices.transpose(0, 2, 1)
        return read_only(probes.reshape(-1, self.dim))

    def grandchild_probes(self, attr: int) -> np.ndarray:
        """Token probes of the child slots of child slot attr, shape (n_attributes * n_tokens, dim).

        Row b * n_tokens + t is child_probes[b * n_tokens + t] @
        attribute_matrices[attr].T, so grandchild_probes(attr) @ u scores the
        child slots of M_attr^T u without rotating u. Built per attribute on
        first use and kept read-only.
        """
        table = self._grandchild_probes.get(attr)
        if table is None:
            table = read_only(self.child_probes @ self.attribute_matrices[attr].T)
            self._grandchild_probes[attr] = table
        return table

    def leaf_image(self, attr: int, token: int) -> np.ndarray:
        """attribute_matrices[attr] @ token_vectors[token]: a leaf's term under attr.

        Computed on first use by the same product an edge of bt_encode runs,
        so its bits are that product's, and kept read-only. At most
        n_attributes * n_tokens images are ever held.
        """
        image = self._leaf_images.get((attr, token))
        if image is None:
            image = read_only(self.attribute_matrices[attr] @ self.token_vectors[token])
            self._leaf_images[attr, token] = image
        return image

    @cached_property
    def _grandchild_probes(self) -> dict[int, np.ndarray]:
        return {}

    @cached_property
    def _leaf_images(self) -> dict[tuple[int, int], np.ndarray]:
        return {}

    def token_vector(self, token: int | str) -> np.ndarray:
        return self.token_vectors[self.schema.token_index(token)]

    def attribute_matrix(self, attr: int | str) -> np.ndarray:
        return self.attribute_matrices[self.schema.attribute_index(attr)]

    def wrap(self, data: np.ndarray) -> BTVector:
        return BTVector(data, self.fingerprint)

    def check(self, v: BTVector) -> np.ndarray:
        return checked_data(v, self.fingerprint, self.dim)


def make_embedding(schema: Schema, dim: int, seed: int) -> Embedding:
    """Sample an embedding deterministically from a 64-bit seed.

    The counter-based Philox generator keyed by the seed makes the draw
    reproducible across platforms. Token vectors are drawn first (normalized
    Gaussian rows), then one Haar orthogonal matrix per attribute in schema
    order; the order is part of the format contract.
    """
    if dim < 2:
        raise DimensionTooSmallError(f"dim must be at least 2, got {dim}")
    if not 0 <= seed <= _MAX_SEED:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    rng = np.random.Generator(np.random.Philox(key=seed))
    tok = rng.standard_normal((schema.n_tokens, dim))
    tok /= np.linalg.norm(tok, axis=1, keepdims=True)
    mats = np.empty((schema.n_attributes, dim, dim))
    for i in range(schema.n_attributes):
        mats[i] = haar_orthogonal(dim, rng)
    return Embedding(
        schema=schema,
        dim=dim,
        seed=seed,
        token_vectors=tok,
        attribute_matrices=mats,
        fingerprint=embedding_fingerprint(schema, dim, seed),
    )


def zero_vector(e: Embedding) -> BTVector:
    return e.wrap(np.zeros(e.dim))


def bt_encode(e: Embedding, tree: Tree) -> BTVector:
    """Embed a tree bottom-up.

    enc(node) = token(label) + sum over children of M_attr @ enc(child),
    which equals the per-node path-product sum without ever materializing a
    matrix chain; cost is one matrix-vector product per edge into an internal
    node, while an edge into a leaf reads the embedding's memoized leaf image.
    The fold is iterative, so depth is bounded only by memory.
    """

    def enc(node: Tree, subs: list[np.ndarray]) -> np.ndarray:
        if node.label >= e.schema.n_tokens:
            raise ValueError(f"label {node.label} outside schema")
        acc = e.token_vectors[node.label].copy()
        for (attr, child), sub in zip(node.children, subs):
            if attr >= e.schema.n_attributes:
                raise ValueError(f"attribute {attr} outside schema")
            if child.children:
                acc += e.attribute_matrices[attr] @ sub
            else:
                acc += e.leaf_image(attr, child.label)
        return acc

    return e.wrap(tree.fold(enc))


def chain_tree(e: Embedding, tokens: Sequence[int | str]) -> Tree:
    """A non-empty token sequence as a tree: each token's next child is the token after it."""
    nxt = e.schema.attribute_index(NEXT)
    *rest, last = [e.schema.token_index(t) for t in tokens]
    node = Tree(last)
    for t in reversed(rest):
        node = Tree.make(t, {nxt: node})
    return node


def cardinality_estimate(v: BTVector) -> int:
    """Nearest integer to the squared norm, the node count in expectation."""
    return int(np.rint(v.data @ v.data))


def attach(
    e: Embedding, v1: BTVector, path: Sequence[int | str], attr: int | str, v2: BTVector
) -> BTVector:
    """Graft the tree behind v2 under `attr` at the node addressed by `path`.

    Linear in both operands: the result is v1 plus v2 rotated by the path
    product extended with the attachment attribute, innermost. Matches
    bt_encode of the composed tree exactly when the slot is free.
    """
    a = e.check(v1)
    b = e.check(v2)
    u = e.attribute_matrix(attr) @ b
    for q in reversed(list(path)):
        u = e.attribute_matrix(q) @ u
    return e.wrap(a + u)


def encode_list(e: Embedding, tokens: Sequence[int | str]) -> BTVector:
    """Embed a non-empty token sequence as a chain along the next attribute."""
    if len(tokens) == 0:
        raise ValueError("encode_list needs a non-empty sequence")
    return bt_encode(e, chain_tree(e, tokens))


def push(e: Embedding, v: BTVector, token: int | str) -> BTVector:
    """Prepend a token to a chain: token vector plus the shifted payload."""
    data = e.check(v)
    return e.wrap(e.token_vector(token) + e.attribute_matrix(NEXT) @ data)
