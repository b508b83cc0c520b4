"""Sequence decoder built from one weight-tied attention block.

The dense comparison at the bottom evaluates the exported tensors with a
generic matrix transformer loop, no structure assumed, and must match the
channelwise evaluator to float precision.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from btembed import (
    CONTEXT,
    THRESHOLD,
    Embedding,
    PathTooLongError,
    Tree,
    XfConfig,
    attention_matrix,
    attention_step,
    block,
    bt_encode,
    decode,
    decode_token,
    export_weights,
    ffn1,
    ffn2,
    haar_orthogonal,
    init_state,
    make_embedding,
    make_sweep_schema,
    random_tree,
    run_decoder,
    save_weights,
)


def tree_small() -> Tree:
    return Tree.make(3, {0: Tree.make(5, {1: Tree(7)}), 1: Tree(9)})


def path_labels(tree, attrs):
    labels = [tree.label]
    node = tree
    for a in attrs:
        node = node.child(a)
        labels.append(node.label)
    return labels


def chain(labels, path):
    """The chain tree whose root path `path` reads `labels`."""
    tree = Tree(labels[-1])
    for label, a in zip(reversed(labels[:-1]), reversed(path)):
        tree = Tree.make(label, {a: tree})
    return tree


def random_path(tree, rng, max_len):
    path, node = [], tree
    while node.children and len(path) < max_len:
        if rng.random() < 0.3:
            break
        attrs = [a for a, _ in node.children]
        a = int(attrs[rng.integers(len(attrs))])
        path.append(a)
        node = node.child(a)
    return path


def positions(e, n):
    """The p channel of an n-slot prompt."""
    return init_state(e, e.wrap(np.zeros(e.dim)), [0] * (n - 1)).pos


def shift(e):
    """Z, read back from the exported query map: Wq's p block is Z^T."""
    wq = export_weights(e, XfConfig())["Wq"]
    np.testing.assert_array_equal(wq[:, CONTEXT:], 0.0)
    return wq[:, :CONTEXT].T


def exact_chain(q):
    """Tokens t0, t1, next on the first three basis vectors and M_next the cyclic
    shift by three, both rotated by the orthogonal q: a chain of up to d / 3
    nodes is exact, every probe of a slot scoring 1 on its own label and 0 on
    every other token, up to rounding."""
    d = q.shape[0]
    return Embedding(
        schema=make_sweep_schema(2, 1),
        seed=0,
        token_vectors=np.eye(3, d) @ q.T,
        attribute_matrices=(q @ np.roll(np.eye(d), 3, axis=0) @ q.T)[None],
    )


class TestPositions:
    """The prompt's one-hot codes and the step Z that attention and Wq share."""

    def test_unit_norms_and_orbit(self, small):
        pos, step = positions(small, CONTEXT), shift(small)
        np.testing.assert_array_equal(pos @ pos.T, np.eye(CONTEXT))
        np.testing.assert_array_equal(step @ step.T, np.eye(CONTEXT))
        np.testing.assert_array_equal(pos[0], np.eye(CONTEXT)[0])
        for i in range(1, CONTEXT):
            np.testing.assert_array_equal(pos[i], step @ pos[i - 1])

    def test_step_is_a_permutation(self, small):
        step = shift(small)
        assert set(np.unique(step)) == {0.0, 1.0}
        np.testing.assert_array_equal(step.sum(axis=0), 1.0)
        np.testing.assert_array_equal(step.sum(axis=1), 1.0)

    def test_deterministic(self, small):
        np.testing.assert_array_equal(positions(small, 6), positions(small, 6))
        np.testing.assert_array_equal(shift(small), shift(small))

    def test_single_slot(self, small):
        pos = positions(small, 1)
        assert pos.shape == (1, CONTEXT)
        np.testing.assert_array_equal(pos[0], np.eye(CONTEXT)[0])

    def test_every_slot_count_up_to_k(self, small):
        for n in range(1, CONTEXT + 1):
            np.testing.assert_array_equal(positions(small, n), np.eye(n, CONTEXT))
        with pytest.raises(PathTooLongError):
            positions(small, CONTEXT + 1)


class TestAttention:
    def test_weight_rows(self, small):
        w = attention_matrix(positions(small, 8), XfConfig())
        np.testing.assert_array_equal(w[0], 0.0)
        np.testing.assert_allclose(w[1:].sum(axis=1), 1.0, atol=1e-12)
        assert np.all(w[np.triu_indices(8)] == 0.0)  # strictly causal

    def test_mass_lands_on_predecessor(self, small):
        w = attention_matrix(positions(small, 8), XfConfig())
        for i in range(1, 8):
            assert w[i, i - 1] == 1.0
            # every other earlier slot keeps exp(-sharpness) of the mass
            np.testing.assert_allclose(w[i, : i - 1], np.exp(-100.0), rtol=1e-9)

    def test_value_delivery_matches_manual_softmax(self, emb_paths):
        e = emb_paths
        rng = np.random.default_rng(68)
        state = init_state(e, bt_encode(e, random_tree(4, 30, 3, rng)), [0, 1])
        wm = rng.standard_normal((3, e.dim))
        state = replace(state, w=wm)
        out = attention_step(state, XfConfig())
        weights = attention_matrix(state.pos, XfConfig())
        np.testing.assert_allclose(out.v, state.v + weights @ wm, atol=1e-12)
        # slot 3 pulls essentially all of w_2
        assert np.linalg.norm(out.v[2] - wm[1]) < 1e-3
        # slot 1 is untouched by a strictly causal mask
        np.testing.assert_array_equal(out.v[0], state.v[0])
        np.testing.assert_array_equal(out.r[0], state.r[0])


class TestInitState:
    def test_layout(self, emb_paths):
        e = emb_paths
        v = bt_encode(e, tree_small())
        state = init_state(e, v, ["next", "arg1"])
        np.testing.assert_array_equal(state.pos, np.eye(3, 64))
        assert state.as_matrix().shape == (3, 64 + 4 * e.dim)
        np.testing.assert_array_equal(state.v[0], v.data)
        np.testing.assert_array_equal(state.v[1:], 0.0)
        np.testing.assert_array_equal(state.w, 0.0)
        np.testing.assert_array_equal(state.t, 0.0)
        # r is the prompt: zero in slot 1, then one attribute token per slot
        np.testing.assert_array_equal(state.r[0], 0.0)
        for i, a in enumerate(["next", "arg1"], start=1):
            np.testing.assert_array_equal(state.r[i], e.token_vector(a))

    def test_slot_one_hides_its_own_head(self, emb_paths):
        # the root label needs no step, so slot 1's r decodes to nothing
        e = emb_paths
        v = bt_encode(e, tree_small())
        state = init_state(e, v, ["next", "arg1", "arg2"])
        assert decode_token(e, state.r[0]) is None

    def test_empty_path_has_zero_chain(self, emb_paths):
        e = emb_paths
        state = init_state(e, bt_encode(e, tree_small()), [])
        np.testing.assert_array_equal(state.r, 0.0)


class TestSchedule:
    """The relay fills one slot per block; the path channel is fixed by the prompt."""

    def make_instance(self, e, rng):
        tree = random_tree(8, 30, 3, rng)
        path = random_path(tree, rng, 4)
        return tree, path

    def test_channels_fill_in_order(self, emb_paths):
        e = emb_paths
        rng = np.random.default_rng(73)
        tree, path = self.make_instance(e, rng)
        while len(path) < 2:
            tree, path = self.make_instance(e, rng)
        labels = path_labels(tree, path)
        attr_tokens = [e.schema.attribute_token_indices[a] for a in path]
        n = len(path) + 1
        state = init_state(e, bt_encode(e, tree), path)
        prompt_r = state.r.copy()
        for s in range(n):
            # r: slot s holds the s-th path token from the prompt on
            assert decode_token(e, state.r[s]) == (attr_tokens[s - 1] if s else None), (s, "r")
        cfg = XfConfig()
        for b in range(1, n + 1):
            state = block(state, e, cfg)
            np.testing.assert_array_equal(state.r, prompt_r)
            for s in range(n):
                # w is the one-block relay: it carries the prefix label only
                # at block s+1, then the cleared v channel zeroes it again
                want_w = labels[s] if b == s + 1 else None
                assert decode_token(e, state.w[s]) == want_w, (b, s, "w")
                # t latches what w held and keeps it
                want_t = labels[s] if b >= s + 1 else None
                assert decode_token(e, state.t[s]) == want_t, (b, s, "t")

    def test_v_cleared_after_every_block(self, emb_paths):
        e = emb_paths
        rng = np.random.default_rng(75)
        tree, path = self.make_instance(e, rng)
        n = len(path) + 1
        state = init_state(e, bt_encode(e, tree), path)
        for _ in range(n):
            state = block(state, e, XfConfig())
            np.testing.assert_array_equal(state.v, 0.0)

    def test_block_count_is_exactly_n(self, emb_paths):
        # n-1 blocks leave the last slot undecoded; the n-th fills it
        e = emb_paths
        rng = np.random.default_rng(77)
        tree, path = self.make_instance(e, rng)
        while len(path) < 2:
            tree, path = self.make_instance(e, rng)
        labels = path_labels(tree, path)
        n = len(path) + 1
        state = init_state(e, bt_encode(e, tree), path)
        for _ in range(n - 1):
            state = block(state, e, XfConfig())
        assert decode_token(e, state.t[n - 1]) is None
        state = block(state, e, XfConfig())
        assert [decode_token(e, state.t[i]) for i in range(n)] == labels


class TestRunDecoder:
    def test_agrees_with_stepwise_reference(self, emb_paths):
        e = emb_paths
        rng = np.random.default_rng(79)
        checked = 0
        for _ in range(20):
            tree = random_tree(int(rng.integers(1, 9)), 30, 3, rng)
            path = random_path(tree, rng, 4)
            v = bt_encode(e, tree)
            got = run_decoder(e, v, path)
            # reference: transpose-step then probe, one prefix at a time
            ref, u = [], v.data
            ref.append(decode_token(e, u))
            for a in path:
                u = e.attribute_matrices[a].T @ u
                ref.append(decode_token(e, u))
            assert got == ref
            if decode(e, v) == tree:
                assert got == path_labels(tree, path)
                checked += 1
        assert checked >= 15  # the reference itself must be healthy here

    def test_empty_path(self, emb_paths):
        e = emb_paths
        tree = tree_small()
        v = bt_encode(e, tree)
        assert run_decoder(e, v, []) == [tree.label]

    def test_deterministic(self, emb_paths):
        e = emb_paths
        v = bt_encode(e, tree_small())
        assert run_decoder(e, v, [0]) == run_decoder(e, v, [0])

    def test_path_too_long(self, emb_paths):
        e = emb_paths
        v = bt_encode(e, tree_small())
        with pytest.raises(PathTooLongError, match="65 slots exceed the context of 64"):
            run_decoder(e, v, ["next"] * CONTEXT)

    @pytest.mark.parametrize("length", [8, 12])
    def test_long_paths_agree(self, emb_paths, length):
        # each slot's gate sees only its own attribute token, so its off-target
        # inputs stay at the token overlaps however long the path grows
        e = emb_paths
        rng = np.random.default_rng(87 + length)
        for _ in range(20):
            labels = [int(x) for x in rng.integers(30, size=length + 1)]
            path = [int(a) for a in rng.integers(3, size=length)]
            assert run_decoder(e, bt_encode(e, chain(labels, path)), path) == labels

    def test_full_context_on_an_exact_chain(self):
        # a 63-step path fills all 64 slots, every position code in use; one
        # more step does not fit
        e = exact_chain(np.eye(256))
        labels = [int(x) for x in np.random.default_rng(96).integers(3, size=CONTEXT)]
        path = [0] * (CONTEXT - 1)
        v = bt_encode(e, chain(labels, path))
        assert run_decoder(e, v, path) == labels
        with pytest.raises(PathTooLongError):
            run_decoder(e, v, path + [0])

    def test_full_width_at_every_seed(self):
        # the codes do not depend on the embedding, so a path that fills all
        # 64 positions decodes whatever seeded rotation the embedding is in
        rng = np.random.default_rng(95)
        for seed in range(4):
            e = exact_chain(haar_orthogonal(256, np.random.default_rng(seed)))
            labels = [int(x) for x in rng.integers(3, size=CONTEXT)]
            path = [0] * (CONTEXT - 1)
            assert run_decoder(e, bt_encode(e, chain(labels, path)), path) == labels

    @pytest.mark.parametrize("path", [[-1], [3], ["nope"]])
    def test_unknown_attribute_raises(self, emb_paths, path):
        e = emb_paths
        with pytest.raises(KeyError):
            run_decoder(e, bt_encode(e, tree_small()), path)

    def test_gate_saturation_margin(self, emb_paths):
        # doubling both saturation constants must not move any label
        e = emb_paths
        rng = np.random.default_rng(80)
        hard = XfConfig(attn_sharpness=200.0, gate_constant=2e4)
        for _ in range(8):
            tree = random_tree(int(rng.integers(1, 9)), 30, 3, rng)
            path = random_path(tree, rng, 4)
            v = bt_encode(e, tree)
            assert run_decoder(e, v, path) == run_decoder(e, v, path, hard)


def ffn1_all_pairs(state, e, cfg):
    """Reference ffn1: every slot through every attribute matrix, no pair skipped."""
    c = cfg.gate_constant
    attr_rows = e.token_vectors[list(e.schema.attribute_token_indices)]
    gates = c * (state.r @ attr_rows.T - THRESHOLD)
    f1 = np.maximum(state.v, 0.0) - np.maximum(-state.v, 0.0)
    for j in range(e.schema.n_attributes):
        stepped = state.v @ e.attribute_matrices[j]
        yj = gates[:, j : j + 1]
        f1 += np.maximum(yj + stepped - state.v, 0.0) - np.maximum(yj, 0.0)
    return replace(state, w=f1)


def block_all_pairs(state, e, cfg):
    return ffn2(ffn1_all_pairs(attention_step(state, cfg), e, cfg), e, cfg)


def gate_inputs_to_r(e, inputs):
    """Path rows whose gate inputs <attr_j, r> equal the given (slots x attributes) values."""
    attr_rows = e.token_vectors[list(e.schema.attribute_token_indices)]
    return np.linalg.solve(attr_rows @ attr_rows.T, inputs.T).T @ attr_rows


class TestLiveSlotFfn1:
    """ffn1 skips only pairs whose gate term is exactly 0.0, so w matches the
    all-pairs reference up to GEMV-versus-GEMM rounding."""

    def test_matches_all_pairs_on_decoder_states(self, emb_paths):
        e = emb_paths
        rng = np.random.default_rng(81)
        cfg = XfConfig()
        for _ in range(10):
            tree = random_tree(int(rng.integers(2, 9)), 30, 3, rng)
            path = random_path(tree, rng, 4)
            state = init_state(e, bt_encode(e, tree), path)
            for _ in range(len(path) + 1):
                state = attention_step(state, cfg)
                got = ffn1(state, e, cfg)
                want = ffn1_all_pairs(state, e, cfg)
                np.testing.assert_allclose(got.w, want.w, rtol=0, atol=1e-9)
                state = ffn2(got, e, cfg)

    def adversarial_state(self, e, case, rng):
        n, d = 4, e.dim
        state = init_state(e, e.wrap(np.zeros(d)), [0, 1, 2])
        n_attrs = e.schema.n_attributes
        if case == "zero":
            return replace(state, r=np.zeros((n, d)))
        trees = [random_tree(int(rng.integers(1, 6)), 30, 3, rng) for _ in range(n)]
        v = np.stack([bt_encode(e, t).data for t in trees])
        if case == "several-live":
            inputs = rng.choice([0.0, 1.0], size=(n, n_attrs)) + 0.05 * rng.standard_normal((n, n_attrs))
        elif case == "unsaturated":
            # C(g - 1/2) within a few |v| of zero: the relus sit mid-band
            inputs = 0.5 + rng.uniform(-1e-4, 1e-4, size=(n, n_attrs))
        elif case == "tiny":
            v *= 1e-30
            inputs = rng.choice([0.0, 1.0], size=(n, n_attrs))
        return replace(state, v=v, r=gate_inputs_to_r(e, inputs))

    @pytest.mark.parametrize("case", ["several-live", "unsaturated", "tiny", "zero"])
    def test_adversarial_states(self, emb_paths, case):
        e = emb_paths
        cfg = XfConfig()
        state = self.adversarial_state(e, case, np.random.default_rng(83))
        got = ffn1(state, e, cfg).w
        want = ffn1_all_pairs(state, e, cfg).w
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        if case == "unsaturated":
            # no pair may be skippable, or the case tests nothing
            attr_rows = e.token_vectors[list(e.schema.attribute_token_indices)]
            gates = cfg.gate_constant * (state.r @ attr_rows.T - THRESHOLD)
            assert np.all(np.abs(gates) < 3.0 * np.linalg.norm(state.v, axis=1, keepdims=True))
        if case in ("tiny", "zero"):
            # every pair is shut or flat, so no product is taken and w is v
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got, state.v)

    def test_blocks_match_all_pairs_reference(self, emb_paths):
        # labels and the t and r channels are bitwise equal after every block
        e = emb_paths
        rng = np.random.default_rng(86)
        cfg = XfConfig()
        for _ in range(15):
            tree = random_tree(int(rng.integers(1, 10)), 30, 3, rng)
            path = random_path(tree, rng, 4)
            got = want = init_state(e, bt_encode(e, tree), path)
            for _ in range(len(path) + 1):
                got = block(got, e, cfg)
                want = block_all_pairs(want, e, cfg)
                np.testing.assert_array_equal(got.t, want.t)
                np.testing.assert_array_equal(got.r, want.r)
                np.testing.assert_allclose(got.w, want.w, rtol=0, atol=1e-9)
                labels = [decode_token(e, row) for row in got.t]
                assert labels == [decode_token(e, row) for row in want.t]


@pytest.fixture(scope="module")
def small():
    return make_embedding(make_sweep_schema(6, 2), 24, 91)


class TestDenseParity:
    """The exported tensors, run through a generic transformer loop, must
    reproduce the channelwise evaluator exactly."""

    def dense_block(self, x, tensors, cfg):
        n = x.shape[0]
        q = x @ tensors["Wq"].T
        key = x @ tensors["Wk"].T
        logits = cfg.attn_sharpness * (q @ key.T)
        mask = np.tril(np.ones((n, n), dtype=bool), k=-1)
        weights = np.zeros((n, n))
        if n > 1:
            masked = np.where(mask, logits, -np.inf)[1:]
            masked -= masked.max(axis=1, keepdims=True)
            expd = np.exp(masked)
            weights[1:] = expd / expd.sum(axis=1, keepdims=True)
        x = x + weights @ (x @ tensors["Wv"].T)
        for tag in ("f1", "f2"):
            hidden = np.maximum(x @ tensors[f"{tag}_lin"].T + tensors[f"{tag}_bias"], 0.0)
            x = x + hidden @ tensors[f"{tag}_out"].T
        return x

    def test_block_parity(self, small):
        e = small
        rng = np.random.default_rng(93)
        tree = random_tree(5, 6, 2, rng)
        path = random_path(tree, rng, 3)
        while len(path) != 3:
            tree = random_tree(5, 6, 2, rng)
            path = random_path(tree, rng, 3)
        self.assert_parity(e, init_state(e, bt_encode(e, tree), path))

    def test_block_parity_two_live_slots(self, small):
        # a second slot with nonzero v exercises every skip ffn1 can make
        e = small
        rng = np.random.default_rng(94)
        trees = [random_tree(4, 6, 2, rng) for _ in range(2)]
        state = init_state(e, bt_encode(e, trees[0]), [0, 1, 0])
        v = state.v.copy()
        v[2] = bt_encode(e, trees[1]).data
        self.assert_parity(e, replace(state, v=v))

    def assert_parity(self, e, state):
        cfg = XfConfig()
        tensors = export_weights(e, cfg)
        x = state.as_matrix()
        for _ in range(4):
            state = block(state, e, cfg)
            x = self.dense_block(x, tensors, cfg)
            np.testing.assert_allclose(x, state.as_matrix(), atol=1e-8)

    def test_tensor_shapes(self, small):
        e = small
        tensors = export_weights(e, XfConfig())
        d, k = e.dim, CONTEXT
        s = k + 4 * d
        n_attrs, n_tokens = e.schema.n_attributes, e.schema.n_tokens
        assert tensors["Wq"].shape == (k, s)
        assert tensors["Wv"].shape == (s, s)
        # the value map routes only the relay: w into v, the identity, nothing else
        assert np.count_nonzero(tensors["Wv"]) == d
        np.testing.assert_array_equal(tensors["Wv"][k : k + d, k + d : k + 2 * d], np.eye(d))
        assert tensors["f1_lin"].shape == (4 * d + n_attrs * (d + 1), s)
        assert tensors["f2_lin"].shape == (2 * n_tokens + 2 * d, s)

    def test_save_weights(self, small, tmp_path):
        e = small
        tensors = export_weights(e, XfConfig())
        save_weights(tensors, tmp_path / "wts")
        manifest = json.loads((tmp_path / "wts" / "manifest.json").read_text())
        assert manifest["byte_order"] == "little"
        assert manifest["dtype"] == "float64"
        by_name = {t["name"]: t for t in manifest["tensors"]}
        assert set(by_name) == set(tensors)
        for name, arr in tensors.items():
            raw = np.fromfile(tmp_path / "wts" / by_name[name]["file"], dtype="<f8")
            np.testing.assert_array_equal(raw.reshape(by_name[name]["shape"]), arr)
