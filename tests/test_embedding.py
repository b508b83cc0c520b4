"""Embedding construction and algebra.

The reference encoder below recomputes every embedding as an explicit sum
over root-to-node matrix products, with no sharing between nodes.  It is
deliberately naive so the production bottom-up encoder has something
independent to be checked against.
"""

from __future__ import annotations

import itertools
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btembed import (
    BTVector,
    DimensionTooSmallError,
    SchemaMismatchError,
    Tree,
    attach,
    balanced_parens_schema,
    bt_encode,
    cardinality_estimate,
    decode,
    encode_list,
    haar_orthogonal,
    load_embedding,
    make_embedding,
    make_sweep_schema,
    push,
    random_tree,
    run_decoder,
    save_embedding,
    zero_vector,
)
from btembed import embedding
from btembed.embedding import Embedding, chain_tree, embedding_fingerprint


def reference_encode(e, tree: Tree) -> np.ndarray:
    total = np.zeros(e.dim)
    for path, label in tree.paths():
        term = e.token_vectors[label].copy()
        for attr in reversed(path):
            term = e.attribute_matrices[attr] @ term
        total += term
    return total


def edge_by_edge(e, node: Tree) -> np.ndarray:
    """Bottom-up encoder with one attribute_matrices[a] @ sub product per edge, leaves included."""
    acc = e.token_vectors[node.label].copy()
    for attr, sub in node.children:
        acc += e.attribute_matrices[attr] @ edge_by_edge(e, sub)
    return acc


def reference_list(e, tokens, next_attr="next") -> np.ndarray:
    nxt = e.attribute_matrix(next_attr)
    total = np.zeros(e.dim)
    power = np.eye(e.dim)
    for t in tokens:
        total += power @ e.token_vector(t)
        power = power @ nxt
    return total


class TestConstruction:
    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmallError):
            make_embedding(make_sweep_schema(4, 1), 1, 0)
        for d in (0, 1):
            with pytest.raises(DimensionTooSmallError, match=f"got {d}"):
                Embedding(make_sweep_schema(4, 1), 0, np.ones((5, d)), np.ones((1, d, d)))

    def test_dim_and_fingerprint_come_from_arrays_and_seed(self, emb_small):
        assert emb_small.dim == emb_small.token_vectors.shape[1] == 512
        assert emb_small.fingerprint == embedding_fingerprint(emb_small.schema, 512, 7)
        with pytest.raises(TypeError):
            Embedding(schema=emb_small.schema, seed=7, token_vectors=emb_small.token_vectors,
                      attribute_matrices=emb_small.attribute_matrices, dim=512, fingerprint="x")

    @pytest.mark.parametrize(
        "tok_shape, mats_shape",
        [
            ((12, 16), (2, 7, 7)),  # arrays of two dims
            ((11, 16), (2, 16, 16)),  # a token row short of the schema
            ((12, 16), (3, 16, 16)),  # a matrix more than the schema's attributes
            ((12, 16), (2, 16, 8)),  # matrices not square
            ((12,), (2, 12, 12)),  # token vectors not a matrix
        ],
    )
    def test_mismatched_shapes_raise(self, tok_shape, mats_shape):
        with pytest.raises(ValueError, match="do not fit a schema of 12 tokens and 2 attributes"):
            Embedding(make_sweep_schema(10, 2), 0, np.zeros(tok_shape), np.zeros(mats_shape))

    def test_seed_out_of_range(self):
        # checked where an embedding is made, before any draw or fingerprint
        schema = make_sweep_schema(4, 1)
        for seed, error in ((-1, ValueError), (2**64, ValueError), (1.5, TypeError)):
            with pytest.raises(error):
                make_embedding(schema, 16, seed)
            with pytest.raises(error):
                Embedding(schema, seed, np.zeros((5, 4)), np.zeros((1, 4, 4)))

    def test_token_vectors_unit_norm(self, emb_small):
        norms = np.linalg.norm(emb_small.token_vectors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_attribute_matrices_orthogonal(self, emb_small):
        d = emb_small.dim
        for m in emb_small.attribute_matrices:
            np.testing.assert_allclose(m @ m.T, np.eye(d), atol=1e-9)
            assert abs(abs(np.linalg.det(m)) - 1.0) < 1e-9

    def test_deterministic(self):
        s = make_sweep_schema(6, 2)
        a = make_embedding(s, 64, 123)
        b = make_embedding(s, 64, 123)
        np.testing.assert_array_equal(a.token_vectors, b.token_vectors)
        np.testing.assert_array_equal(a.attribute_matrices, b.attribute_matrices)
        assert a.fingerprint == b.fingerprint

    def test_equality_and_hash_are_identity(self):
        # array fields have no one truth value, so == compares identity
        s = make_sweep_schema(3, 2)
        a, b = make_embedding(s, 4, 0), make_embedding(s, 4, 0)
        assert (a == b) is False
        assert (a == a) is True
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2

    def test_seed_changes_everything(self):
        s = make_sweep_schema(6, 2)
        a = make_embedding(s, 64, 0)
        b = make_embedding(s, 64, 1)
        assert not np.array_equal(a.token_vectors, b.token_vectors)
        assert a.fingerprint != b.fingerprint

    def test_fingerprint_inputs(self):
        s = make_sweep_schema(6, 2)
        base = embedding_fingerprint(s, 64, 0)
        assert embedding_fingerprint(s, 64, 0) == base
        assert embedding_fingerprint(s, 128, 0) != base
        assert embedding_fingerprint(s, 64, 1) != base
        assert embedding_fingerprint(make_sweep_schema(7, 2), 64, 0) != base

    def test_accessors_by_name(self, emb_small):
        np.testing.assert_array_equal(
            emb_small.token_vector("t3"), emb_small.token_vectors[3]
        )
        nxt = emb_small.schema.attribute_index("next")
        np.testing.assert_array_equal(
            emb_small.attribute_matrix("next"), emb_small.attribute_matrices[nxt]
        )


class TestHaarSampling:
    """Check the rotation sampler against the two analytic moments that
    distinguish Haar measure from a sign-biased QR draw."""

    def test_first_moment_vanishes(self):
        # a raw QR factorization gives E[M_00] ~ 0.8/sqrt(d), far from 0
        d, n = 8, 600
        rng = np.random.default_rng(42)
        mean = np.zeros((d, d))
        for _ in range(n):
            mean += haar_orthogonal(d, rng)
        mean /= n
        assert np.abs(mean).max() < 0.05

    def test_second_moment_is_isotropic(self):
        d, n = 8, 600
        rng = np.random.default_rng(43)
        sq = np.zeros((d, d))
        for _ in range(n):
            m = haar_orthogonal(d, rng)
            sq += m * m
        sq /= n
        np.testing.assert_allclose(sq, 1.0 / d, atol=0.03)

    def test_orthogonality(self):
        rng = np.random.default_rng(44)
        m = haar_orthogonal(33, rng)
        np.testing.assert_allclose(m @ m.T, np.eye(33), atol=1e-12)


def qr_haar(g: np.ndarray) -> np.ndarray:
    """The sampler as np.linalg.qr of g with the sign step."""
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diagonal(r))
    signs[signs == 0] = 1.0
    return q * signs


class TestInPlaceQR:
    """The QR runs in place as geqrf then orgqr, on numpy's private gufuncs,
    either inline or with orgqr on one worker thread. Every matrix must keep
    the bits of np.linalg.qr on the same draws, whichever schedule runs."""

    def reference(self, schema, dim, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        tok = rng.standard_normal((schema.n_tokens, dim))
        tok /= np.linalg.norm(tok, axis=1, keepdims=True)
        mats = [qr_haar(rng.standard_normal((dim, dim))) for _ in range(schema.n_attributes)]
        return tok, np.array(mats)

    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize(
        "schema, dim",
        [(make_sweep_schema(10, 3), 64), (make_sweep_schema(100, 1), 1000), (balanced_parens_schema(), 1000)],
        ids=["sweep-3-attributes", "list", "balanced-parens"],
    )
    def test_bits_are_np_linalg_qr_under_either_schedule(self, monkeypatch, schema, dim, overlap):
        monkeypatch.setattr(embedding, "_overlap_stages", lambda: overlap)
        tok, mats = self.reference(schema, dim, 11)
        threads = threading.active_count()
        e = make_embedding(schema, dim, 11)
        assert threading.active_count() == threads
        np.testing.assert_array_equal(e.token_vectors, tok)
        np.testing.assert_array_equal(e.attribute_matrices, mats)

    def test_haar_orthogonal_is_the_old_formula(self):
        for dim in (1, 2, 33, 300):
            a, b = np.random.default_rng(dim), np.random.default_rng(dim)
            np.testing.assert_array_equal(haar_orthogonal(dim, a), qr_haar(b.standard_normal((dim, dim))))
            assert a.bit_generator.state == b.bit_generator.state

    def test_one_attribute_starts_no_worker(self, monkeypatch):
        def no_worker(*args, **kwargs):
            raise AssertionError("a worker was started")

        monkeypatch.setattr(embedding, "_overlap_stages", lambda: True)
        monkeypatch.setattr(embedding, "ThreadPoolExecutor", no_worker)
        e = make_embedding(make_sweep_schema(10, 1), 64, 3)
        np.testing.assert_array_equal(e.attribute_matrices, self.reference(e.schema, 64, 3)[1])

    def test_gate_reads_openblas_then_goto_then_omp(self, monkeypatch):
        monkeypatch.setattr(embedding.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for openblas, goto, omp, gate in (
            ("1", "8", "8", True), ("2", "1", "1", False), (None, "2", "1", False), (None, "1", "8", True),
            (None, None, "1", True), (None, None, None, False),
        ):
            names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
            for var, value in zip(names, (openblas, goto, omp)):
                if value is None:
                    monkeypatch.delenv(var, raising=False)
                else:
                    monkeypatch.setenv(var, value)
            assert embedding._overlap_stages() is gate
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert embedding._overlap_stages() is True
        monkeypatch.setattr(embedding.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert embedding._overlap_stages() is False


class TestEncoding:
    def test_single_node_is_token_vector(self, emb_small):
        v = bt_encode(emb_small, Tree(4))
        np.testing.assert_array_equal(v.data, emb_small.token_vectors[4])

    def test_matches_reference_encoder(self, emb_small):
        rng = np.random.default_rng(10)
        for _ in range(25):
            tree = random_tree(int(rng.integers(1, 7)), 10, 2, rng)
            v = bt_encode(emb_small, tree)
            np.testing.assert_allclose(v.data, reference_encode(emb_small, tree), atol=1e-10)

    def test_accumulation_order_unchanged(self, emb_small):
        # the recursive form adds each child's rotated vector in attribute order;
        # the iterative fold, which reads leaf edges from the leaf-image memo,
        # must give the same bits, on single nodes and stars of leaves too
        n_tokens, n_attrs = emb_small.schema.n_tokens, emb_small.schema.n_attributes
        trees = [Tree(x) for x in range(n_tokens)]
        for k in range(1, n_attrs + 1):
            for attrs in itertools.combinations(range(n_attrs), k):
                trees.append(Tree.make(k, {a: Tree(a + 3 * k) for a in attrs}))
        rng = np.random.default_rng(12)
        trees += [random_tree(int(rng.integers(1, 30)), 10, 2, rng) for _ in range(25)]
        for tree in trees:
            want = edge_by_edge(emb_small, tree)
            np.testing.assert_array_equal(bt_encode(emb_small, tree).data, want)

    def test_deep_chain(self):
        e = make_embedding(make_sweep_schema(10, 2), 16, 1)
        tree = Tree(1)
        for _ in range(4999):
            tree = Tree.make(0, {0: tree})
        want = e.token_vectors[1].copy()
        for _ in range(4999):
            acc = e.token_vectors[0].copy()
            acc += e.attribute_matrices[0] @ want
            want = acc
        np.testing.assert_array_equal(bt_encode(e, tree).data, want)

    def test_norm_preserved_by_attributes(self, emb_small):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(emb_small.dim)
        for m in emb_small.attribute_matrices:
            assert abs(np.linalg.norm(m @ x) - np.linalg.norm(x)) < 1e-9

    def test_rejects_out_of_range_labels(self, emb_small):
        with pytest.raises(ValueError):
            bt_encode(emb_small, Tree(99))
        with pytest.raises(ValueError):
            bt_encode(emb_small, Tree.make(0, {5: Tree(1)}))

    def test_vector_carries_fingerprint(self, emb_small):
        v = bt_encode(emb_small, Tree(0))
        assert v.fingerprint == emb_small.fingerprint
        emb_small.check(v)

    def test_check_rejects_foreign_vector(self, emb_small):
        other = make_embedding(emb_small.schema, emb_small.dim, 999)
        v = bt_encode(other, Tree(0))
        with pytest.raises(SchemaMismatchError):
            emb_small.check(v)

    def test_check_rejects_wrong_dim(self, emb_small):
        # the right fingerprint on a vector of the wrong length
        v = BTVector(np.ones(3), emb_small.fingerprint)
        with pytest.raises(SchemaMismatchError, match="dim 3"):
            emb_small.check(v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "op",
        [
            lambda e, v: decode(e, v),
            lambda e, v: run_decoder(e, v, []),
            lambda e, v: attach(e, bt_encode(e, Tree(0)), (), 0, v),
            lambda e, v: push(e, v, 0),
        ],
        ids=["decode", "run_decoder", "attach", "push"],
    )
    def test_non_finite_vector_rejected(self, emb_small, bad, op):
        data = np.zeros(emb_small.dim)
        data[5] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            op(emb_small, emb_small.wrap(data))


class TestLists:
    def test_matches_reference(self, emb_small):
        rng = np.random.default_rng(12)
        for _ in range(10):
            tokens = list(rng.integers(0, 10, size=rng.integers(1, 9)))
            v = encode_list(emb_small, tokens)
            np.testing.assert_allclose(v.data, reference_list(emb_small, tokens), atol=1e-10)

    def test_is_bt_encode_of_its_chain(self, emb_small):
        tokens = ["t3", 1, "t4", 1]
        tree = chain_tree(emb_small, tokens)
        assert tree == chain_tree(emb_small, [3, 1, 4, 1])
        np.testing.assert_array_equal(encode_list(emb_small, tokens).data, bt_encode(emb_small, tree).data)

    def test_empty_list_rejected(self, emb_small):
        for make in (encode_list, chain_tree):
            with pytest.raises(ValueError, match="needs a non-empty sequence"):
                make(emb_small, [])

    def test_push_onto_zero_is_the_token_vector(self, emb_small):
        v = push(emb_small, zero_vector(emb_small), "t3")
        np.testing.assert_array_equal(v.data, emb_small.token_vector("t3"))
        np.testing.assert_array_equal(v.data, encode_list(emb_small, ["t3"]).data)

    def test_push_fold_equals_encode_list(self, emb_small):
        rng = np.random.default_rng(13)
        for _ in range(10):
            tokens = [int(x) for x in rng.integers(0, 10, size=16)]
            acc = zero_vector(emb_small)
            for t in reversed(tokens):
                acc = push(emb_small, acc, t)
            ref = encode_list(emb_small, tokens)
            assert np.abs(acc.data - ref.data).max() < 1e-9

    def test_shift_pops_the_head(self, emb_small):
        tokens = [3, 1, 4, 1, 5]
        v = encode_list(emb_small, tokens)
        nxt = emb_small.attribute_matrix("next")
        shifted = nxt.T @ (v.data - emb_small.token_vector(tokens[0]))
        rest = encode_list(emb_small, tokens[1:])
        np.testing.assert_allclose(shifted, rest.data, atol=1e-9)


def small_embedding() -> Embedding:
    """A fresh embedding, so a test sees its own memo: tokens t0 t1 t2 next arg1, attributes next arg1."""
    return make_embedding(make_sweep_schema(3, 2), 16, 1)


class TestLeafImages:
    def test_built_on_first_use_and_read_only(self, tmp_path):
        e = small_embedding()
        save_embedding(e, tmp_path / "e.bte")
        for emb in (e, load_embedding(tmp_path / "e.bte")):
            assert "_leaf_images" not in emb.__dict__
            image = emb.bind(1, emb.token_vectors[2].copy())
            assert emb.bind(1, emb.token_vectors[2]) is image
            assert emb.bind("arg1", emb.token_vectors[2]) is image
            assert list(emb._leaf_images) == [(1, 2)]
            np.testing.assert_array_equal(image, emb.attribute_matrices[1] @ emb.token_vectors[2])
            with pytest.raises(ValueError):
                image[0] = 1.0
            bt_encode(emb, Tree.make(0, {0: Tree(1), 1: Tree.make(2, {0: Tree(0)})}))
            assert sorted(emb._leaf_images) == [(0, 0), (0, 1), (1, 2)]

    def test_push_onto_one_token_adds_its_image(self):
        e = small_embedding()
        one = push(e, zero_vector(e), "t2")
        assert "_leaf_images" not in e.__dict__
        two = push(e, one, "t0")
        assert list(e._leaf_images) == [(0, 2)]
        np.testing.assert_array_equal(two.data, e.token_vectors[0] + e._leaf_images[0, 2])
        np.testing.assert_array_equal(two.data, encode_list(e, ["t0", "t2"]).data)

    def test_attach_of_one_token_list_adds_its_image(self):
        e = small_embedding()
        base = bt_encode(e, Tree(0))
        glued = attach(e, base, [], "arg1", encode_list(e, ["t1"]))
        assert list(e._leaf_images) == [(1, 1)]
        np.testing.assert_array_equal(glued.data, e.token_vectors[0] + e._leaf_images[1, 1])
        # under a path only the innermost step binds a token's vector
        deep = attach(e, base, ["next"], "arg1", encode_list(e, ["t2"]))
        assert sorted(e._leaf_images) == [(1, 1), (1, 2)]
        np.testing.assert_array_equal(deep.data, e.token_vectors[0] + e.attribute_matrices[0] @ e._leaf_images[1, 2])

    def test_bind_of_zeros_runs_no_product(self):
        # NaN matrices: any product would leave NaN in the result
        d = 8
        schema = make_sweep_schema(2, 2)
        e = Embedding(schema=schema, seed=0, token_vectors=np.eye(schema.n_tokens, d),
                      attribute_matrices=np.full((2, d, d), np.nan))
        for z in (np.zeros(d), -np.zeros(d)):
            assert e.bind(1, z) is z
        np.testing.assert_array_equal(push(e, zero_vector(e), "t1").data, e.token_vectors[1])
        np.testing.assert_array_equal(attach(e, zero_vector(e), ["next"], "arg1", zero_vector(e)).data, np.zeros(d))
        assert "_leaf_images" not in e.__dict__

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(data=st.data())
    def test_bind_is_the_product_bitwise(self, emb_small, data):
        e = emb_small
        attr = data.draw(st.integers(0, e.schema.n_attributes - 1))
        row = e.token_vectors[data.draw(st.integers(0, e.schema.n_tokens - 1))]
        kind = data.draw(st.sampled_from(["row", "copy", "nudge", "random", "random sharing x[0]"]))
        if kind == "row":
            x = row
        elif kind == "copy":
            x = row.copy()
        elif kind == "nudge":
            x = row.copy()
            i = data.draw(st.integers(0, e.dim - 1))
            x[i] = np.nextafter(x[i], data.draw(st.sampled_from([-np.inf, np.inf])))
        else:
            x = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(e.dim)
            if kind == "random sharing x[0]":
                x[0] = row[0]
        assert e.bind(attr, x).tobytes() == (e.attribute_matrices[attr] @ x).tobytes()


def trees(n_tokens: int, n_attrs: int):
    """Trees with labels below n_tokens and children under attributes below n_attrs."""
    labels = st.integers(0, n_tokens - 1)
    return st.recursive(
        labels.map(Tree),
        lambda kids: st.builds(
            Tree.make, labels, st.dictionaries(st.integers(0, n_attrs - 1), kids, max_size=n_attrs)
        ),
        max_leaves=10,
    )


class TestLinearity:
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(base=trees(10, 2), sub=trees(10, 2), data=st.data())
    def test_attach_is_bt_encode_of_the_grafted_tree(self, emb_small, base, sub, data):
        spots = [
            (path, a)
            for path, _ in base.paths()
            for a in range(2)
            if base.node_at(path).child(a) is None
        ]
        path, attr = data.draw(st.sampled_from(spots))
        glued = attach(emb_small, bt_encode(emb_small, base), path, attr, bt_encode(emb_small, sub))
        direct = bt_encode(emb_small, base.with_subtree(path, attr, sub))
        np.testing.assert_allclose(glued.data, direct.data, rtol=0, atol=1e-12)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(tokens=st.lists(st.integers(0, 11), min_size=1, max_size=16))
    def test_push_fold_is_encode_list(self, emb_small, tokens):
        acc = zero_vector(emb_small)
        for t in reversed(tokens):
            acc = push(emb_small, acc, t)
        np.testing.assert_array_equal(acc.data, encode_list(emb_small, tokens).data)


class TestIndexBounds:
    """An integer token or attribute outside the schema is a KeyError, never a
    wrapped negative index or a raw IndexError."""

    def test_push(self, emb_small):
        with pytest.raises(KeyError):
            push(emb_small, zero_vector(emb_small), -1)

    def test_encode_list(self, emb_small):
        with pytest.raises(KeyError):
            encode_list(emb_small, [0, 99])

    @pytest.mark.parametrize("path, attr", [((), 9), ((), -1), ((9,), 0)])
    def test_attach(self, emb_small, path, attr):
        v = bt_encode(emb_small, Tree(0))
        with pytest.raises(KeyError):
            attach(emb_small, v, path, attr, v)

    @pytest.mark.parametrize("attr", [-1, 2, "nope"])
    def test_bind(self, emb_small, attr):
        for x in (emb_small.token_vectors[0], np.zeros(emb_small.dim)):
            with pytest.raises(KeyError):
                emb_small.bind(attr, x)


class TestAttach:
    def test_matches_recomputed_tree(self, emb_small):
        rng = np.random.default_rng(14)
        for _ in range(30):
            base = random_tree(int(rng.integers(1, 7)), 10, 2, rng)
            sub = random_tree(int(rng.integers(1, 5)), 10, 2, rng)
            spots = []
            for path, _ in base.paths():
                used = {a for a, _ in base.node_at(path).children}
                spots.extend((path, a) for a in range(2) if a not in used)
            path, attr = spots[rng.integers(len(spots))]
            combined = base.with_subtree(path, attr, sub)
            direct = bt_encode(emb_small, combined)
            glued = attach(emb_small, bt_encode(emb_small, base), path, attr, bt_encode(emb_small, sub))
            assert np.abs(glued.data - direct.data).max() < 1e-9

    def test_rejects_foreign_operand(self, emb_small):
        other = make_embedding(emb_small.schema, emb_small.dim, 999)
        v1 = bt_encode(emb_small, Tree(0))
        v2 = bt_encode(other, Tree(1))
        with pytest.raises(SchemaMismatchError):
            attach(emb_small, v1, (), 0, v2)


class TestCardinality:
    def test_single_node(self, emb_small):
        assert cardinality_estimate(bt_encode(emb_small, Tree(2))) == 1

    def test_overflowing_norm_gets_d(self, emb_small):
        # a finite vector whose squared norm is inf counts d nodes, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cardinality_estimate(emb_small.wrap(np.full(emb_small.dim, 1e200))) == emb_small.dim

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises(self, emb_small, bad):
        data = np.zeros(emb_small.dim)
        data[3] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            cardinality_estimate(emb_small.wrap(data))

    def test_small_trees_at_wide_dimension(self):
        # sizes <= 5 keep the rounding error a >3.5 sigma event at d=2000
        e = make_embedding(make_sweep_schema(20, 3), 2000, 17)
        rng = np.random.default_rng(15)
        bad = 0
        for _ in range(100):
            size = int(rng.integers(1, 6))
            tree = random_tree(size, 20, 3, rng)
            if cardinality_estimate(bt_encode(e, tree)) != size:
                bad += 1
        assert bad == 0

    def test_error_shrinks_with_dimension(self):
        schema = make_sweep_schema(16, 2)
        errs = {}
        for d in (512, 3072):
            e = make_embedding(schema, d, 21)
            rng = np.random.default_rng(16)
            devs = []
            for _ in range(30):
                v = bt_encode(e, random_tree(12, 16, 2, rng)).data
                devs.append(abs(v @ v - 12.0))
            errs[d] = float(np.mean(devs))
        assert errs[3072] < errs[512]

    def test_degrades_for_large_trees(self):
        # size 16 at d=2000 sits past the reliable regime; the estimate
        # must visibly miss, otherwise the variance model is wrong
        e = make_embedding(make_sweep_schema(20, 3), 2000, 18)
        rng = np.random.default_rng(19)
        miss = sum(
            cardinality_estimate(bt_encode(e, random_tree(16, 20, 3, rng))) != 16
            for _ in range(60)
        )
        assert miss > 0


class TestBTVector:
    def test_coerces_to_float64(self):
        v = BTVector([1, 2, 3], "fp")
        assert v.data.dtype == np.float64
        assert v.dim == 3

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            BTVector(np.zeros((2, 2)), "fp")

    def test_norm(self):
        assert BTVector([3.0, 4.0], "fp").norm() == pytest.approx(5.0)


class TestReadOnly:
    """The embedding's arrays and vector data are shared, so writes must fail."""

    def test_embedding_arrays_reject_writes(self, emb_small):
        with pytest.raises(ValueError):
            emb_small.token_vectors[0, 0] = 1.0
        with pytest.raises(ValueError):
            emb_small.attribute_matrices[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            emb_small.attribute_matrix("next")[0] += 1.0

    def test_vector_data_rejects_writes(self, emb_small):
        v = encode_list(emb_small, [1, 2])
        with pytest.raises(ValueError):
            v.data[0] = 1.0
        single = encode_list(emb_small, [3])
        with pytest.raises(ValueError):
            single.data += 1.0

    def test_caller_arrays_stay_writable(self, emb_small):
        tok = np.array(emb_small.token_vectors)
        mats = np.array(emb_small.attribute_matrices)
        e = Embedding(schema=emb_small.schema, seed=emb_small.seed, token_vectors=tok, attribute_matrices=mats)
        assert np.shares_memory(e.token_vectors, tok)
        assert np.shares_memory(e.attribute_matrices, mats)
        tok[0, 0] = 2.0
        mats[0, 0, 0] = 2.0
        data = np.zeros(4)
        v = BTVector(data, "fp")
        data[0] = 1.0
        assert v.data[0] == 1.0
        assert not v.data.flags.writeable
