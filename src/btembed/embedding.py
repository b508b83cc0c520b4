"""Embeddings: token vectors, orthogonal attribute matrices, and the algebra.

A tree embeds as a superposition of its nodes. Each node contributes its
token vector rotated by the product of the attribute matrices along the path
from the root, taken left to right. Because the matrices are orthogonal the
per-node contributions keep unit norm, and in high dimension they are nearly
orthogonal to each other, which is what makes decoding possible.
"""

from __future__ import annotations

import hashlib
import operator
import struct
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

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


def _check_seed(seed: int) -> None:
    """TypeError unless seed is an integer, ValueError unless it fits in 64 unsigned bits."""
    if not 0 <= operator.index(seed) <= _MAX_SEED:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")


def memo_product(product: Callable, x: np.ndarray, rows: np.ndarray, memo: dict, tag: int) -> np.ndarray:
    """product(x), or memo[tag, i] when x is exactly row i of rows: matched on
    its first entry, then whole, and filled read-only on first use by
    product(rows[i]), so its bits are the product's."""
    for i in map(int, np.flatnonzero(rows[:, 0] == x[0])):
        if np.array_equal(x, rows[i]):
            if (tag, i) not in memo:
                memo[tag, i] = read_only(product(rows[i]))
            return memo[tag, i]
    return product(x)


def embedding_fingerprint(schema: Schema, dim: int, seed: int) -> str:
    """Hex digest identifying an embedding; arrays are determined by these inputs."""
    h = hashlib.sha256()
    h.update(schema.digest())
    h.update(struct.pack("<IQ", dim, seed))
    return h.hexdigest()


@dataclass(frozen=True, eq=False)
class Embedding:
    """Frozen bundle of schema, token vectors, and attribute matrices.

    token_vectors has shape (n_tokens, dim) with unit rows. attribute_matrices
    has shape (n_attributes, dim, dim); each slice is orthogonal, so its
    inverse is its transpose. Both are stored as read-only views, so every
    operation, rule set and vector shares the one fixed set of arrays. dim
    and fingerprint are read off the arrays and the seed, never set. The
    seed is an integer in 0..2**64 - 1, else TypeError or ValueError.
    Equality and hashing are by identity, as arrays have no one truth value.
    """

    schema: Schema
    seed: int
    token_vectors: np.ndarray
    attribute_matrices: np.ndarray

    def __post_init__(self) -> None:
        _check_seed(self.seed)
        for name in ("token_vectors", "attribute_matrices"):
            object.__setattr__(self, name, read_only(getattr(self, name)))
        n, m = self.schema.n_tokens, self.schema.n_attributes
        tok, mats = self.token_vectors.shape, self.attribute_matrices.shape
        d = tok[-1] if tok else 0
        if tok != (n, d) or mats != (m, d, d):
            raise ValueError(f"arrays {tok} and {mats} do not fit a schema of {n} tokens and {m} attributes")
        if d < 2:
            raise DimensionTooSmallError(f"dim must be at least 2, got {d}")

    @property
    def dim(self) -> int:
        return self.token_vectors.shape[1]

    @cached_property
    def fingerprint(self) -> str:
        return embedding_fingerprint(self.schema, self.dim, self.seed)

    @cached_property
    def probe_depth(self) -> int:
        """The longest path slot_probes keeps a table for.

        The largest K >= 1 whose tables, one per path of length <= K, fit in
        one d x d matrix together: (1 + m + ... + m^K) * m * n_tokens <= d
        rows for m attributes. 1 when no K fits.
        """
        m = self.schema.n_attributes
        rows = m * self.schema.n_tokens
        depth, paths = 1, 1 + m
        while (paths + m ** (depth + 1)) * rows <= self.dim:
            depth += 1
            paths += m**depth
        return depth

    def slot_probes(self, path: Sequence[int | str] = ()) -> np.ndarray:
        """Token probes of the child slots of the node at `path`, shape (n_attributes * n_tokens, dim).

        path is a sequence of attribute names or indices, at most probe_depth
        long, else ValueError; an unknown attribute raises KeyError. Row
        b * n_tokens + t is token t seen through M_b^T M_pk^T ... M_p1^T, so
        slot_probes(path) @ u scores token t in child slot b of the node that
        path reaches from u, without rotating u. A path's table is its tail's
        times M_p1^T, one product. Each is built on first use and kept
        read-only, keyed by attribute indices, so making or loading an
        embedding never pays for one.
        """
        key = tuple(self.schema.attribute_index(a) for a in path)
        if len(key) > self.probe_depth:
            raise ValueError(f"path of {len(key)} steps is longer than probe_depth {self.probe_depth}")
        tables = self._slot_probes
        if key not in tables:
            # every tail of a kept path is kept: build up from the longest one
            i = 1
            while key[i:] not in tables:
                i += 1
            for j in range(i - 1, -1, -1):
                tables[key[j:]] = read_only(tables[key[j + 1 :]] @ self.attribute_matrices[key[j]].T)
        return tables[key]

    def bind(self, attr: int | str, x: np.ndarray) -> np.ndarray:
        """M_attr @ x, x's term under attr; the result is read, never written.

        attr is a name or an index in the schema, else KeyError. An all-zero
        x is returned as is, since M 0 = 0. x exactly equal to a token's
        vector reads the token's image from a memo_product memo keyed by
        attribute index and token.
        """
        a = self.schema.attribute_index(attr)
        if not x.any():
            return x
        product = partial(np.matmul, self.attribute_matrices[a])
        return memo_product(product, x, self.token_vectors, self._leaf_images, a)

    @cached_property
    def _slot_probes(self) -> dict[tuple[int, ...], np.ndarray]:
        probes = self.token_vectors @ self.attribute_matrices.transpose(0, 2, 1)
        return {(): read_only(probes.reshape(-1, self.dim))}

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

    The counter-based Philox generator keyed by the seed makes the draws
    the same on every platform; the matrices' QR runs in BLAS, so their bits
    hold for one BLAS build and thread count. Token vectors are drawn first
    (normalized Gaussian rows), then one Haar orthogonal matrix per attribute
    in schema order; the order is part of the format contract.
    """
    if dim < 2:
        raise DimensionTooSmallError(f"dim must be at least 2, got {dim}")
    _check_seed(seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    tok = rng.standard_normal((schema.n_tokens, dim))
    tok /= np.linalg.norm(tok, axis=1, keepdims=True)
    mats = np.empty((schema.n_attributes, dim, dim))
    for i in range(schema.n_attributes):
        mats[i] = haar_orthogonal(dim, rng)
    return Embedding(schema=schema, seed=seed, token_vectors=tok, attribute_matrices=mats)


def zero_vector(e: Embedding) -> BTVector:
    return e.wrap(np.zeros(e.dim))


def bt_encode(e: Embedding, tree: Tree) -> BTVector:
    """Embed a tree bottom-up.

    enc(node) = token(label) + sum over children of M_attr @ enc(child),
    which equals the per-node path-product sum without ever materializing a
    matrix chain. Each edge's term is e.bind, one matrix-vector product, or
    the memoized image when the child is a leaf, whose vector is its token's.
    The fold is iterative, so depth is bounded only by memory.
    """

    def enc(node: Tree, subs: list[np.ndarray]) -> np.ndarray:
        if node.label >= e.schema.n_tokens:
            raise ValueError(f"label {node.label} outside schema")
        acc = e.token_vectors[node.label].copy()
        for (attr, _), sub in zip(node.children, subs):
            if attr >= e.schema.n_attributes:
                raise ValueError(f"attribute {attr} outside schema")
            acc += e.bind(attr, sub)
        return acc

    return e.wrap(tree.fold(enc))


def chain_tree(e: Embedding, tokens: Sequence[int | str]) -> Tree:
    """A token sequence as a chain, each token's next child the one after it; empty raises ValueError."""
    nxt = e.schema.attribute_index(NEXT)
    return Tree.from_parents([(e.schema.token_index(t), nxt, i - 1) for i, t in enumerate(tokens)])


def cardinality_estimate(v: BTVector) -> int:
    """Nearest integer to the squared norm, the node count in expectation, capped at
    d as the decoder's budget is, so an overflowing norm gives d; NaN or inf raise ValueError."""
    data = checked_data(v, v.fingerprint, v.dim)
    with np.errstate(over="ignore"):
        return int(min(v.dim, np.rint(data @ data)))


def attach(
    e: Embedding, v1: BTVector, path: Sequence[int | str], attr: int | str, v2: BTVector
) -> BTVector:
    """Graft the tree behind v2 under `attr` at the node addressed by `path`.

    Linear in both operands: the result is v1 plus v2 rotated by the path
    product extended with the attachment attribute, innermost, one e.bind
    per step. Matches bt_encode of the composed tree exactly when the slot is
    free.
    """
    a = e.check(v1)
    u = e.check(v2)
    for q in [*path, attr][::-1]:
        u = e.bind(q, u)
    return e.wrap(a + u)


def encode_list(e: Embedding, tokens: Sequence[int | str]) -> BTVector:
    """Embed a non-empty token sequence as a chain along the next attribute."""
    return bt_encode(e, chain_tree(e, tokens))


def push(e: Embedding, v: BTVector, token: int | str) -> BTVector:
    """Prepend a token to a chain: token vector plus the payload bound under next."""
    data = e.check(v)
    return e.wrap(e.token_vector(token) + e.bind(NEXT, data))
