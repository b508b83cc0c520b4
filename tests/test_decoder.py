from __future__ import annotations

import numpy as np
import pytest

from btembed import (
    BudgetExceededError,
    DecodeConfig,
    DecodeStats,
    THRESHOLD,
    Embedding,
    ParseState,
    RuleSet,
    Schema,
    SchemaMismatchError,
    Tree,
    bt_encode,
    decode,
    decode_token,
    decode_with_stats,
    load_embedding,
    make_embedding,
    make_sweep_schema,
    random_tree,
    save_embedding,
)


class TestDecodeToken:
    def test_exact_token(self, emb_small):
        for t in range(5):
            assert decode_token(emb_small, emb_small.token_vectors[t]) == t

    def test_zero_vector(self, emb_small):
        assert decode_token(emb_small, np.zeros(emb_small.dim)) is None

    def test_vector_is_checked_against_the_embedding(self, emb_small):
        # a bare array is read as is; a BTVector is checked like any other operand
        other = make_embedding(emb_small.schema, emb_small.dim, 999)
        with pytest.raises(SchemaMismatchError):
            decode_token(emb_small, other.wrap(other.token_vectors[0]))
        with pytest.raises(ValueError, match="NaN or infinite"):
            decode_token(emb_small, emb_small.wrap(np.full(emb_small.dim, np.nan)))
        assert decode_token(emb_small, emb_small.wrap(emb_small.token_vectors[3])) == 3

    def exact_embedding(self) -> Embedding:
        # hand-built axis-aligned embedding so probe values are exact floats;
        # the attribute flips the sign, so no child slot of a token scores above 0
        schema = Schema(("a", "b", "a_attr"), ("a_attr",))
        tv = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        return Embedding(
            schema=schema,
            dim=2,
            seed=0,
            token_vectors=tv,
            attribute_matrices=-np.eye(2)[None, :, :],
            fingerprint="exact-test",
        )

    def test_threshold_is_strict(self):
        e = self.exact_embedding()
        assert decode_token(e, np.array([THRESHOLD, 0.0])) is None
        assert decode_token(e, np.array([np.nextafter(THRESHOLD, 1.0), 0.0])) == 0

    def test_every_probe_splits_at_the_one_threshold(self):
        # the decoder's token and node probes and the parser's head labels
        # all reject a best score of exactly THRESHOLD and take the next float up
        e = self.exact_embedding()
        ruleset = RuleSet((), e.token_vectors, (), e.leaf_image, e.fingerprint)
        at, above = np.array([THRESHOLD, 0.0]), np.array([np.nextafter(THRESHOLD, 1.0), 0.0])
        assert decode_token(e, e.wrap(at)) is None
        assert decode_token(e, e.wrap(above)) == 0
        assert decode(e, e.wrap(at)) is None
        assert decode(e, e.wrap(above)) == Tree(0)
        assert ParseState.start([at, above], ruleset).heads == [None, 0]

    def test_tie_breaks_to_lowest_index(self):
        # duplicate token rows force an exact tie
        assert decode_token(self.exact_embedding(), np.array([1.0, 0.0])) == 0

    def test_hand_built_embedding_decodes(self):
        e = self.exact_embedding()
        tree, stats = decode_with_stats(e, e.wrap(np.array([0.0, 1.0])))
        assert tree == Tree(2)
        assert (stats.visits, stats.nodes) == (2, 1)
        np.testing.assert_array_equal(e.child_probes, -e.token_vectors)


def rotate_then_probe(e: Embedding, v, config: DecodeConfig) -> tuple[Tree | None, DecodeStats]:
    """Reference decoder: rotate into every child slot with M_attr^T, then probe it."""
    stats = DecodeStats()

    def explore(u: np.ndarray, depth: int) -> Tree | None:
        stats.visits += 1
        stats.probes += e.schema.n_tokens
        scores = e.token_vectors @ u
        label = int(np.argmax(scores))
        if not scores[label] > THRESHOLD:
            return None
        if depth > config.max_depth:
            raise BudgetExceededError(f"decode exceeded max_depth {config.max_depth}")
        stats.nodes += 1
        if stats.nodes > config.max_nodes:
            raise BudgetExceededError(f"decode exceeded max_nodes {config.max_nodes}")
        stats.max_depth = max(stats.max_depth, depth)
        children = []
        for attr in range(e.schema.n_attributes):
            sub = explore(e.attribute_matrices[attr].T @ u, depth + 1)
            if sub is not None:
                children.append((attr, sub))
        return Tree(label, tuple(children))

    return explore(v.data, 0), stats


def outcome(decoder, e: Embedding, v, config: DecodeConfig):
    """A decoder's result, or the type and message of the budget error it raised."""
    try:
        return decoder(e, v, config)
    except BudgetExceededError as err:
        return type(err), str(err)


class TestProbeBeforeRotate:
    """decode_with_stats agrees with the rotate-then-probe reference exactly."""

    def test_random_trees(self, emb_small):
        # at d = 192 most trees past size 8 decode wrong, as noise clears
        # THRESHOLD in empty slots; those decodes must agree too
        noisy = make_embedding(make_sweep_schema(10, 2), 192, 7)
        rng = np.random.default_rng(57)
        wrong = 0
        for _ in range(40):
            tree = random_tree(int(rng.integers(1, 17)), 10, 2, rng)
            for e in (emb_small, noisy):
                v = bt_encode(e, tree)
                for cfg in (DecodeConfig(), DecodeConfig(max_nodes=5), DecodeConfig(max_depth=2)):
                    want = outcome(rotate_then_probe, e, v, cfg)
                    assert outcome(decode_with_stats, e, v, cfg) == want
            wrong += decode(noisy, v) != tree  # v is noisy's, from the last pass
        assert wrong >= 20

    def test_noise_that_trips_the_budgets(self, emb_small):
        rng = np.random.default_rng(58)
        errors = set()
        for norm in (6.0, 10.0, 30.0):
            for _ in range(4):
                x = rng.standard_normal(emb_small.dim)
                v = emb_small.wrap(x * (norm / np.linalg.norm(x)))
                for cfg in (DecodeConfig(), DecodeConfig(max_nodes=40), DecodeConfig(max_depth=3)):
                    want = outcome(rotate_then_probe, emb_small, v, cfg)
                    assert outcome(decode_with_stats, emb_small, v, cfg) == want
                    if want[0] is BudgetExceededError:
                        errors.add(want[1].split()[2])
        assert errors == {"max_depth", "max_nodes"}


class TestChildProbes:
    def test_rows_are_rotated_token_probes(self, emb_small):
        n_tokens = emb_small.schema.n_tokens
        for a in range(emb_small.schema.n_attributes):
            for t in range(n_tokens):
                np.testing.assert_allclose(
                    emb_small.child_probes[a * n_tokens + t],
                    emb_small.token_vectors[t] @ emb_small.attribute_matrices[a].T,
                    rtol=0,
                    atol=1e-12,
                )

    def test_built_on_first_use_and_read_only(self, tmp_path):
        e = make_embedding(make_sweep_schema(3, 2), 16, 1)
        save_embedding(e, tmp_path / "e.bte")
        for emb in (e, load_embedding(tmp_path / "e.bte")):
            assert "child_probes" not in emb.__dict__
            probes = emb.child_probes
            assert emb.child_probes is probes
            with pytest.raises(ValueError):
                probes[0, 0] = 1.0


class TestGrandchildProbes:
    def test_rows_score_the_rotated_child_slots(self, emb_small):
        u = bt_encode(emb_small, random_tree(6, 10, 2, np.random.default_rng(59))).data
        for a in range(emb_small.schema.n_attributes):
            np.testing.assert_allclose(
                emb_small.grandchild_probes(a) @ u,
                emb_small.child_probes @ (emb_small.attribute_matrices[a].T @ u),
                rtol=0,
                atol=1e-12,
            )

    def test_built_per_attribute_on_first_use_and_read_only(self, tmp_path):
        e = make_embedding(make_sweep_schema(3, 2), 16, 1)
        save_embedding(e, tmp_path / "e.bte")
        for emb in (e, load_embedding(tmp_path / "e.bte")):
            assert "_grandchild_probes" not in emb.__dict__
            table = emb.grandchild_probes(1)
            assert emb.grandchild_probes(1) is table
            assert list(emb._grandchild_probes) == [1]
            with pytest.raises(ValueError):
                table[0, 0] = 1.0


class TestDeepChain:
    def test_decodes_without_recursion(self):
        # basis-vector tokens and the cyclic shift as M_next make the
        # 1,100-node chain exact: every probe scores 1.0 or 0.0
        d, n = 1200, 1100
        e = Embedding(
            schema=Schema(("a", "next"), ("next",)),
            dim=d,
            seed=0,
            token_vectors=np.eye(2, d),
            attribute_matrices=np.roll(np.eye(d), 1, axis=0)[None],
            fingerprint="shift-chain",
        )
        v = e.wrap((np.arange(d) < n).astype(float))
        tree, stats = decode_with_stats(e, v, DecodeConfig(max_depth=5000))
        want = Tree(0)
        for _ in range(n - 1):
            want = Tree(0, ((0, want),))
        assert tree == want
        assert (stats.nodes, stats.max_depth) == (n, n - 1)


class TestDecode:
    def test_round_trip(self, emb_small):
        rng = np.random.default_rng(50)
        for _ in range(30):
            tree = random_tree(int(rng.integers(1, 9)), 10, 2, rng)
            v = bt_encode(emb_small, tree)
            assert decode(emb_small, v) == tree

    def test_absent(self, emb_small):
        assert decode(emb_small, emb_small.wrap(np.zeros(emb_small.dim))) is None
        rng = np.random.default_rng(51)
        noise = rng.standard_normal(emb_small.dim)
        noise /= np.linalg.norm(noise)
        assert decode(emb_small, emb_small.wrap(noise)) is None

    def test_subtree_via_transpose(self, emb_small):
        tree = Tree.make(0, {0: Tree.make(1, {1: Tree(2)})})
        v = bt_encode(emb_small, tree).data
        child = emb_small.attribute_matrices[0].T @ v
        assert decode(emb_small, emb_small.wrap(child)) == tree.child(0)


class TestBudgets:
    def chain(self, n: int) -> Tree:
        t = Tree(1)
        for _ in range(n - 1):
            t = Tree.make(2, {0: t})
        return t

    def test_node_budget(self, emb_small):
        v = bt_encode(emb_small, self.chain(12))
        with pytest.raises(BudgetExceededError):
            decode(emb_small, v, DecodeConfig(max_nodes=5))

    def test_depth_budget(self, emb_small):
        v = bt_encode(emb_small, self.chain(12))
        with pytest.raises(BudgetExceededError):
            decode(emb_small, v, DecodeConfig(max_depth=5))
        assert decode(emb_small, v, DecodeConfig(max_depth=11)) == self.chain(12)

    def test_budget_applies_to_accepted_nodes_only(self, emb_small):
        # a shallow tree decodes fine under a tiny depth cap because no
        # accepted node ever reaches the cap
        v = bt_encode(emb_small, Tree.make(0, {0: Tree(1)}))
        assert decode(emb_small, v, DecodeConfig(max_depth=1)) is not None


class TestStats:
    def test_probe_accounting(self, emb_small):
        rng = np.random.default_rng(53)
        n_tokens = emb_small.schema.n_tokens
        n_attrs = emb_small.schema.n_attributes
        for _ in range(10):
            tree = random_tree(int(rng.integers(1, 9)), 10, 2, rng)
            v = bt_encode(emb_small, tree)
            decoded, stats = decode_with_stats(emb_small, v)
            assert stats.probes == stats.visits * n_tokens
            bound = (n_attrs * tree.node_count() + n_attrs + 1) * n_tokens
            assert stats.probes <= bound
            if decoded == tree:
                # a clean run probes the root plus every child slot once
                assert stats.visits == 1 + n_attrs * stats.nodes
                assert stats.nodes == tree.node_count()
                assert stats.max_depth == max(len(p) for p, _ in tree.paths())

    def test_absent_costs_one_visit(self, emb_small):
        _, stats = decode_with_stats(emb_small, emb_small.wrap(np.zeros(emb_small.dim)))
        assert stats.visits == 1
        assert stats.nodes == 0


class TestMarginProperty:
    def test_probe_deviation_bounded_by_coherence(self, emb_small):
        """Every probe is the indicator entry plus at most l-1 cross terms,
        so its deviation is bounded by (l-1) times the worst cross term."""
        rng = np.random.default_rng(54)
        tree = random_tree(8, 10, 2, rng)
        nodes = list(tree.paths())
        l = len(nodes)
        terms = []
        for path, label in nodes:
            u = emb_small.token_vectors[label].copy()
            for attr in reversed(path):
                u = emb_small.attribute_matrices[attr] @ u
            terms.append(u)
        terms = np.asarray(terms)
        v = bt_encode(emb_small, tree).data
        np.testing.assert_allclose(terms.sum(axis=0), v, atol=1e-10)

        eps = 0.0
        deviations = []
        for x, (path, label) in enumerate(nodes):
            # probing token s at node x scores <w_s, W^T v> = <W w_s, v>,
            # so lift every probe token through the path product
            lifted = emb_small.token_vectors
            for attr in reversed(path):
                lifted = lifted @ emb_small.attribute_matrices[attr].T
            ips = lifted @ terms.T  # (n_tokens, l)
            for s in range(emb_small.schema.n_tokens):
                cross = [ips[s, y] for y in range(l) if not (y == x and s == label)]
                eps = max(eps, max(abs(c) for c in cross))
                indicator = 1.0 if s == label else 0.0
                deviations.append((abs(ips[s].sum() - indicator), len(cross)))
        for dev, n_cross in deviations:
            assert dev <= n_cross * eps + 1e-9
        assert eps < 0.3
