from __future__ import annotations

import numpy as np
import pytest

from btembed import (
    BudgetExceededError,
    DecodeStats,
    THRESHOLD,
    Embedding,
    Rule,
    RuleSet,
    Schema,
    SchemaMismatchError,
    Tree,
    balanced_parens_grammar,
    balanced_parens_schema,
    bt_encode,
    decode,
    decode_token,
    decode_with_stats,
    encode_list,
    load_embedding,
    make_embedding,
    make_sweep_schema,
    parse_vectors,
    random_balanced,
    random_tree,
    save_embedding,
    symbolic_parse,
)
from btembed.embedding import chain_tree
from btembed.harness import trial_rng


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
        return Embedding(schema=schema, seed=0, token_vectors=tv, attribute_matrices=-np.eye(2)[None, :, :])

    def test_threshold_is_strict(self):
        e = self.exact_embedding()
        assert decode_token(e, np.array([THRESHOLD, 0.0])) is None
        assert decode_token(e, np.array([np.nextafter(THRESHOLD, 1.0), 0.0])) == 0

    def test_every_probe_splits_at_the_one_threshold(self):
        # the decoder's token and node probes and the parser's head labels
        # all reject a best score of exactly THRESHOLD and take the next float up
        e = self.exact_embedding()
        at, above = np.array([THRESHOLD, 0.0]), np.array([np.nextafter(THRESHOLD, 1.0), 0.0])
        assert decode_token(e, e.wrap(at)) is None
        assert decode_token(e, e.wrap(above)) == 0
        assert decode(e, e.wrap(at)) is None
        assert decode(e, e.wrap(above)) == Tree(0)
        # the one rule a -> b rewrites a slot only once its head reads a
        ruleset = RuleSet((Rule((0,), 1),), e.token_vectors, e.bind, e.fingerprint)
        assert parse_vectors([e.wrap(at)], ruleset).data.tolist() == at.tolist()
        assert parse_vectors([e.wrap(above)], ruleset).data.tolist() == [1.0 - above[0], 0.0]

    def test_tie_breaks_to_lowest_index(self):
        # duplicate token rows force an exact tie
        assert decode_token(self.exact_embedding(), np.array([1.0, 0.0])) == 0

    def test_hand_built_embedding_decodes(self):
        e = self.exact_embedding()
        tree, stats = decode_with_stats(e, e.wrap(np.array([0.0, 1.0])))
        assert tree == Tree(2)
        assert (stats.visits, stats.nodes) == (2, 1)
        np.testing.assert_array_equal(e.slot_probes(), -e.token_vectors)


def budget(e: Embedding, v) -> int:
    """The decoder's node budget, min(d, 2||v||^2 + 1), worked out the same way."""
    with np.errstate(over="ignore"):
        return int(min(e.dim, 2 * float(v.data @ v.data) + 1))


def rotate_then_probe(e: Embedding, v) -> tuple[Tree | None, DecodeStats]:
    """Reference decoder: rotate into every child slot with M_attr^T, then probe it."""
    stats = DecodeStats()
    max_nodes = budget(e, v)

    def explore(u: np.ndarray, depth: int) -> Tree | None:
        stats.visits += 1
        stats.probes += e.schema.n_tokens
        scores = e.token_vectors @ u
        label = int(np.argmax(scores))
        if not scores[label] > THRESHOLD:
            return None
        stats.nodes += 1
        if stats.nodes > max_nodes:
            raise BudgetExceededError(f"decode accepted over min(d, 2|v|^2 + 1) = {max_nodes} nodes")
        stats.max_depth = max(stats.max_depth, depth)
        children = []
        for attr in range(e.schema.n_attributes):
            sub = explore(e.attribute_matrices[attr].T @ u, depth + 1)
            if sub is not None:
                children.append((attr, sub))
        return Tree(label, tuple(children))

    return explore(v.data, 0), stats


def outcome(decoder, e: Embedding, v):
    """A decoder's result, or the type and message of the budget error it raised."""
    try:
        return decoder(e, v)
    except BudgetExceededError as err:
        return type(err), str(err)


class TestProbeBeforeRotate:
    """decode_with_stats agrees with the rotate-then-probe reference exactly.

    Depth stays under the budget, at most d, so at emb_small's d = 512 the
    reference recurses fewer than 513 levels.
    """

    def test_random_trees(self, emb_small, narrow):
        # at d = 192 most trees past size 8 decode wrong, as noise clears
        # THRESHOLD in empty slots; those decodes must agree too, and a
        # budget error counts as a wrong decode
        two = make_embedding(make_sweep_schema(10, 2), 160, 7)
        noisy = make_embedding(make_sweep_schema(10, 2), 192, 7)
        embeddings = (emb_small, narrow, two, noisy)
        assert [e.probe_depth for e in embeddings] == [4, 1, 2, 3]
        rng = np.random.default_rng(57)
        wrong = 0
        for _ in range(40):
            tree = random_tree(int(rng.integers(1, 17)), 10, 2, rng)
            for e in embeddings:
                v = bt_encode(e, tree)
                want = outcome(rotate_then_probe, e, v)
                assert outcome(decode_with_stats, e, v) == want
            wrong += want[0] != tree  # noisy's, from the last pass
        assert wrong >= 20

    def test_lists(self, emb_list):
        # list_edit's schema and d, where the tables reach 9 levels deep;
        # past about 20 tokens some lists decode wrong, and must agree too
        rng = np.random.default_rng(61)
        for n in range(1, 41):
            for _ in range(3):
                v = encode_list(emb_list, [int(t) for t in rng.integers(100, size=n)])
                assert outcome(decode_with_stats, emb_list, v) == outcome(rotate_then_probe, emb_list, v)

    def test_noise_that_trips_the_budgets(self, emb_small, narrow):
        # norm-10 noise trips 2||v||^2 + 1 and norm-30 noise the d cap
        rng = np.random.default_rng(58)
        capped = set()
        for e in (emb_small, narrow):
            for norm in (6.0, 10.0, 30.0):
                for _ in range(4):
                    x = rng.standard_normal(e.dim)
                    v = e.wrap(x * (norm / np.linalg.norm(x)))
                    want = outcome(rotate_then_probe, e, v)
                    assert outcome(decode_with_stats, e, v) == want
                    if want[0] is BudgetExceededError:
                        capped.add(budget(e, v) == e.dim)
        assert capped == {False, True}


def root_probes(e: Embedding) -> np.ndarray:
    """The root's slot table as the decoder built it before path tables: row
    a * n_tokens + t is token t seen through M_a^T."""
    return (e.token_vectors @ e.attribute_matrices.transpose(0, 2, 1)).reshape(-1, e.dim)


def rotate(e: Embedding, path, u: np.ndarray) -> np.ndarray:
    """u rotated into the node that path reaches, one M^T product per step."""
    for a in path:
        u = e.attribute_matrices[a].T @ u
    return u


def shaped(schema: Schema, d: int) -> Embedding:
    """An embedding of the right shapes whose arrays are never read, to ask its probe_depth."""
    m = schema.n_attributes
    return Embedding(schema, 0, np.zeros((schema.n_tokens, d)), np.broadcast_to(np.eye(d), (m, d, d)))


@pytest.fixture(scope="module")
def narrow():
    # emb_small's schema at d = 80, where probe_depth is 1, as for tree_roundtrip
    return make_embedding(make_sweep_schema(10, 2), 80, 2)


@pytest.fixture(scope="module")
def emb_list():
    # the list_edit schema and dim: 101 tokens, one attribute, probe_depth 8
    return make_embedding(make_sweep_schema(100, 1), 1000, 3)


def tall_below_root(tree: Tree, height: int) -> int:
    """The tree's non-root nodes with a descendant `height` levels down."""
    return len({p[:-height] for p, _ in tree.paths() if len(p) > height})


class TestRotations:
    def test_lists_within_probe_depth_rotate_nothing(self, emb_list, counting):
        # a node's child slots are scored from its ancestor probe_depth = 8
        # levels up, so only the non-root nodes of height >= 8 get a frame,
        # one rotation each: the first n - 9 below the root of an n-list
        e, count = counting(emb_list)
        assert e.probe_depth == 8
        rng = np.random.default_rng(62)
        for n in range(1, 17):
            tokens = [int(t) for t in rng.integers(100, size=n)]
            count[0] = 0
            assert decode(e, encode_list(emb_list, tokens)) == chain_tree(emb_list, tokens)
            assert count[0] == max(0, n - 9)

    def test_at_most_one_rotation_per_internal_node(self, emb_small, narrow, counting):
        # one rotation per non-root node of height >= probe_depth: with
        # probe_depth 1 every internal node below the root, as before
        rng = np.random.default_rng(63)
        for base, depth in ((narrow, 1), (emb_small, 4)):
            e, count = counting(base)
            assert e.probe_depth == depth
            for _ in range(10):
                tree = random_tree(int(rng.integers(1, 9)), 10, 2, rng)
                count[0] = 0
                decoded = decode(e, bt_encode(base, tree))
                assert count[0] == tall_below_root(decoded, depth)


class TestChildProbes:
    def test_rows_are_rotated_token_probes(self, emb_small):
        n_tokens = emb_small.schema.n_tokens
        for a in range(emb_small.schema.n_attributes):
            for t in range(n_tokens):
                np.testing.assert_allclose(
                    emb_small.slot_probes()[a * n_tokens + t],
                    emb_small.token_vectors[t] @ emb_small.attribute_matrices[a].T,
                    rtol=0,
                    atol=1e-12,
                )
        np.testing.assert_array_equal(emb_small.slot_probes(), root_probes(emb_small))

    def test_built_on_first_use_and_read_only(self, tmp_path):
        e = make_embedding(make_sweep_schema(3, 2), 16, 1)
        save_embedding(e, tmp_path / "e.bte")
        for emb in (e, load_embedding(tmp_path / "e.bte")):
            assert "_slot_probes" not in emb.__dict__
            probes = emb.slot_probes()
            assert emb.slot_probes(()) is probes
            with pytest.raises(ValueError):
                probes[0, 0] = 1.0


class TestGrandchildProbes:
    def test_rows_score_the_rotated_child_slots(self, emb_small):
        # a one-step table is the root's times M_a^T, bit for bit as before
        u = bt_encode(emb_small, random_tree(6, 10, 2, np.random.default_rng(59))).data
        for a in range(emb_small.schema.n_attributes):
            np.testing.assert_array_equal(
                emb_small.slot_probes((a,)), root_probes(emb_small) @ emb_small.attribute_matrices[a].T
            )
            np.testing.assert_allclose(
                emb_small.slot_probes((a,)) @ u,
                emb_small.slot_probes() @ (emb_small.attribute_matrices[a].T @ u),
                rtol=0,
                atol=1e-12,
            )

    def test_built_per_attribute_on_first_use_and_read_only(self, tmp_path):
        e = make_embedding(make_sweep_schema(3, 2), 16, 1)
        save_embedding(e, tmp_path / "e.bte")
        for emb in (e, load_embedding(tmp_path / "e.bte")):
            assert "_slot_probes" not in emb.__dict__
            table = emb.slot_probes((1,))
            assert emb.slot_probes(("arg1",)) is table
            # attributes resolve as bind's do, and a bad one stores nothing
            for bad in ((-1,), (2,), ("arg2",)):
                with pytest.raises(KeyError):
                    emb.slot_probes(bad)
            assert list(emb._slot_probes) == [(), (1,)]
            with pytest.raises(ValueError):
                table[0, 0] = 1.0


class TestSlotProbes:
    def test_paths_score_the_rotated_slots(self, emb_small, emb_list, parens_embedding):
        rng = np.random.default_rng(60)
        for e in (emb_small, emb_list, parens_embedding):
            u = rng.standard_normal(e.dim)
            u *= 4.0 / np.linalg.norm(u)
            for _ in range(12):
                path = tuple(int(a) for a in rng.integers(e.schema.n_attributes, size=rng.integers(e.probe_depth + 1)))
                np.testing.assert_allclose(
                    e.slot_probes(path) @ u, e.slot_probes() @ rotate(e, path, u), rtol=0, atol=1e-12
                )

    def test_every_tail_is_kept(self, emb_small):
        e = make_embedding(emb_small.schema, 160, 2)
        assert e.probe_depth == 2
        e.slot_probes((1, 0))
        assert list(e._slot_probes) == [(), (0,), (1, 0)]
        with pytest.raises(ValueError, match="longer than probe_depth 2"):
            e.slot_probes((0, 0, 0))

    @pytest.mark.parametrize(
        "schema, d, depth",
        [
            (make_sweep_schema(100, 4), 2000, 1),  # tree_roundtrip: no K fits
            (balanced_parens_schema(), 1000, 2),  # vector_parse
            (make_sweep_schema(100, 1), 1000, 8),  # list_edit
            (Schema(("a", "next"), ("next",)), 16, 7),
        ],
    )
    def test_probe_depth_keeps_the_tables_in_one_matrix(self, schema, d, depth):
        # depth is the longest K whose tables, m * n_tokens rows per path,
        # fit in one d x d matrix; probe_depth keeps at least those tables,
        # and with one attribute the two budgets are the same
        m, rows = schema.n_attributes, schema.n_attributes * schema.n_tokens

        def fits(k):
            return sum(m**j for j in range(k + 1)) * rows <= d

        assert not fits(depth + 1)
        assert fits(depth) or depth == 1
        assert shaped(schema, d).probe_depth >= depth
        assert shaped(schema, d).probe_depth == depth or m > 1

    @pytest.mark.parametrize(
        "schema, d, depth",
        [
            (make_sweep_schema(100, 4), 2000, 1),  # tree_roundtrip: K = 2 needs 2,184 > 2,000
            (balanced_parens_schema(), 1000, 3),  # vector_parse
            (make_sweep_schema(100, 1), 1000, 8),  # list_edit
            (Schema(("a", "next"), ("next",)), 16, 7),
        ],
    )
    def test_probe_depth_keeps_the_tables_within_the_attribute_matrices(self, schema, d, depth):
        # the tables of every path of <= k steps, m * n_tokens rows of d
        # floats each, hold no more floats than the m matrices, m * d^2
        m = schema.n_attributes

        def fits(k):
            return sum(m**j for j in range(k + 1)) * schema.n_tokens <= d

        assert shaped(schema, d).probe_depth == depth
        assert not fits(depth + 1)
        assert fits(depth) or depth == 1

    def test_decoded_tables_fit_in_the_attribute_matrices(self, parens_embedding, emb_list, emb_small):
        # the tables that decodes leave, wrong and over-budget ones included,
        # take no more bytes than the attribute matrices, on fresh memos
        grammar, rng = balanced_parens_grammar(), np.random.default_rng(64)
        words = [random_balanced(n, trial_rng(7, 3, 1000, n, t)) for n in range(2, 25, 2) for t in range(10)]
        cases = [
            (parens_embedding, [symbolic_parse(grammar, w, parens_embedding.schema) for w in words]),
            (emb_list, [chain_tree(emb_list, [int(t) for t in rng.integers(100, size=n)]) for n in range(1, 41)]),
            (emb_small, [random_tree(int(rng.integers(1, 25)), 10, 2, rng) for _ in range(60)]),
        ]
        for base, trees in cases:
            e = Embedding(base.schema, base.seed, base.token_vectors, base.attribute_matrices)
            for tree in trees:
                outcome(decode, e, bt_encode(e, tree))
            assert len(e._slot_probes) > 1
            assert sum(t.nbytes for t in e._slot_probes.values()) <= e.attribute_matrices.nbytes


def shift_chain(d: int) -> Embedding:
    """Basis-vector tokens and the cyclic shift as M_next: for n <= d - 2 the
    scaled indicator of the first n coordinates is an exact n-node chain,
    whose every probe scores the scale or 0.0."""
    return Embedding(
        schema=Schema(("a", "next"), ("next",)),
        seed=0,
        token_vectors=np.eye(2, d),
        attribute_matrices=np.roll(np.eye(d), 1, axis=0)[None],
    )


def chain(n: int) -> Tree:
    t = Tree(0)
    for _ in range(n - 1):
        t = Tree(0, ((0, t),))
    return t


class TestDeepChain:
    def test_decodes_without_recursion(self):
        d, n = 1200, 1100
        e = shift_chain(d)
        tree, stats = decode_with_stats(e, e.wrap(np.arange(d) < n))
        assert tree == chain(n)
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
    """The shift chain scaled by s passes every probe, so its n nodes decode
    exactly while n <= min(d, 2 s^2 n + 1) and raise past it."""

    def test_node_budget(self):
        e = shift_chain(64)
        for n in range(1, 40):
            v = e.wrap(0.6 * (np.arange(e.dim) < n))
            if n > 2 * 0.36 * n + 1:
                with pytest.raises(BudgetExceededError, match=f"= {budget(e, v)} nodes$"):
                    decode(e, v)
            else:
                assert decode(e, v) == chain(n)

    def test_budget_applies_to_accepted_nodes_only(self):
        # an n-node chain with n = int(0.72n + 1) fills its budget and decodes;
        # the n + 1 slots probed on the way count for nothing
        e = shift_chain(64)
        for n in (1, 2, 3):
            tree, stats = decode_with_stats(e, e.wrap(0.6 * (np.arange(e.dim) < n)))
            assert tree == chain(n)
            assert stats.nodes == n == int(0.72 * n + 1) < stats.visits

    def test_dimension_caps_the_budget(self):
        # 2||v||^2 + 1 = 2n + 1 exceeds d, so d binds: d - 2 nodes decode
        # (past that the chain wraps round), and the all-ones vector, a chain
        # that never ends, raises at d + 1 nodes; so does one whose every
        # entry is finite and whose ||v||^2 is inf
        e = shift_chain(16)
        assert decode(e, e.wrap(np.arange(16) < 14)) == chain(14)
        for scale in (1.0, 1e200):
            with pytest.raises(BudgetExceededError, match="= 16 nodes$"):
                decode(e, e.wrap(np.full(16, scale)))


class TestStats:
    def test_probe_accounting(self, emb_small):
        # every decode, right or wrong, probes the root plus every child slot
        # of every node it accepts, once; at d = 192 many decodes are wrong
        noisy = make_embedding(make_sweep_schema(10, 2), 192, 7)
        rng = np.random.default_rng(53)
        n_tokens = emb_small.schema.n_tokens
        n_attrs = emb_small.schema.n_attributes
        wrong = 0
        for _ in range(20):
            tree = random_tree(int(rng.integers(1, 13)), 10, 2, rng)
            for e in (emb_small, noisy):
                decoded, stats = decode_with_stats(e, bt_encode(e, tree))
                assert stats.visits == 1 + n_attrs * stats.nodes
                assert stats.probes == stats.visits * n_tokens
                assert stats.nodes == decoded.node_count()
                assert stats.max_depth == max(len(p) for p, _ in decoded.paths())
                wrong += decoded != tree
        assert wrong >= 5

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
