from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btembed import (
    DuplicateNameError,
    EmptyAlphabetError,
    NonReflexiveError,
    Schema,
    Tree,
)


def small_schema() -> Schema:
    return Schema(("a", "b", "c", "next", "left"), ("next", "left"))


class TestSchemaValidation:
    def test_valid_schema(self):
        s = small_schema()
        assert s.n_tokens == 5
        assert s.n_attributes == 2

    def test_minimal_reflexive(self):
        s = Schema(("x",), ("x",))
        assert s.attribute_token_indices == (0,)

    def test_empty_tokens(self):
        with pytest.raises(EmptyAlphabetError):
            Schema((), ("next",))

    def test_empty_attributes(self):
        with pytest.raises(EmptyAlphabetError):
            Schema(("a",), ())

    def test_duplicate_tokens(self):
        with pytest.raises(DuplicateNameError):
            Schema(("a", "a", "next"), ("next",))

    def test_duplicate_attributes(self):
        with pytest.raises(DuplicateNameError):
            Schema(("a", "next"), ("next", "next"))

    def test_non_reflexive(self):
        with pytest.raises(NonReflexiveError):
            Schema(("a", "b"), ("next",))

    def test_lookup(self):
        s = small_schema()
        assert s.token_index("c") == 2
        assert s.attribute_index("left") == 1
        with pytest.raises(KeyError):
            s.token_index("zz")
        with pytest.raises(KeyError):
            s.attribute_index("a")

    def test_lookup_by_index(self):
        # an index is range-checked like a name, so -1 cannot wrap to the last entry
        s = small_schema()
        assert s.token_index(4) == 4
        assert s.attribute_index(1) == 1
        for bad in (-1, 5):
            with pytest.raises(KeyError):
                s.token_index(bad)
        for bad in (-1, 2):
            with pytest.raises(KeyError):
                s.attribute_index(bad)

    def test_attribute_token_indices(self):
        s = small_schema()
        assert s.attribute_token_indices == (3, 4)


class TestSchemaSerialization:
    def test_round_trip(self):
        s = small_schema()
        assert Schema.from_dict(s.to_dict()) == s

    def test_canonical_json_is_stable(self):
        s = small_schema()
        assert s.canonical_json() == s.canonical_json()
        # canonical form is order-insensitive in the dict, not in the lists
        blob = json.loads(s.canonical_json())
        assert blob["tokens"] == list(s.tokens)

    def test_digest_distinguishes_schemas(self):
        a = small_schema()
        b = Schema(("a", "b", "c", "next", "left"), ("left", "next"))
        assert a.digest() != b.digest()
        assert len(a.digest()) == 32

    def test_validate_schema_rejects_junk(self):
        with pytest.raises(EmptyAlphabetError):
            Schema.from_dict({"tokens": []})
        with pytest.raises(NonReflexiveError):
            Schema.from_dict({"tokens": ["a"], "attributes": ["b"]})
        with pytest.raises(ValueError):
            Schema.from_dict([])
        with pytest.raises(ValueError):
            Schema.from_dict({"tokens": 5, "attributes": ["a"]})
        with pytest.raises(ValueError):
            Schema.from_dict({"tokens": "ab", "attributes": ["a"]})
        with pytest.raises(ValueError):
            Schema.from_dict({"tokens": ["a"], "attributes": [1]})


class TestTree:
    def test_leaf(self):
        t = Tree(2)
        assert t.node_count() == 1
        assert t.child(0) is None

    def test_make_sorts_children(self):
        t = Tree.make(0, {1: Tree(3), 0: Tree(2)})
        assert [a for a, _ in t.children] == [0, 1]
        assert t.child(0).label == 2
        assert t.child(1).label == 3

    def test_unsorted_children_rejected(self):
        with pytest.raises(ValueError):
            Tree(0, ((1, Tree(1)), (0, Tree(2))))

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ValueError):
            Tree(0, ((1, Tree(1)), (1, Tree(2))))

    def test_negative_attribute_rejected(self):
        with pytest.raises(ValueError, match="attribute index must be non-negative"):
            Tree(0, ((-1, Tree(1)),))

    @pytest.mark.parametrize(
        "label, children",
        [(1.5, ()), ("a", ()), (None, ()), (0, ((0.5, Tree(1)),)), (0, ((np.float64(1.0), Tree(1)),))],
        ids=["float-label", "str-label", "none-label", "float-attr", "numpy-float-attr"],
    )
    def test_non_integer_index_rejected(self, label, children):
        # labels and attributes are indices, checked as Schema.token_index checks them
        with pytest.raises(TypeError):
            Tree(label, children)

    @pytest.mark.parametrize("child", [5, None, {"label": 1}], ids=["int", "none", "dict"])
    def test_non_tree_child_rejected(self, child):
        # caught at construction, not later in bt_encode, repr or hash
        with pytest.raises(TypeError, match="every child must be a Tree"):
            Tree(0, ((0, child),))

    def test_numpy_integer_index_accepted(self):
        assert Tree(np.int64(2), ((np.intp(0), Tree(1)),)) == Tree(2, ((0, Tree(1)),))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([], "non-empty"),
            ([(0, -1, -1), (1, 0, -1)], "not an earlier row"),
            ([(0, -1, -1), (1, 0, 1)], "not an earlier row"),
            ([(0, -1, -1), (1, 0, 2), (2, 1, 0)], "not an earlier row"),
            ([(0, -1, -1), (1, 0, 0), (2, 0, 0)], "two children under attribute 0"),
        ],
    )
    def test_from_parents_rejects_bad_rows(self, rows, message):
        with pytest.raises(ValueError, match=message):
            Tree.from_parents(rows)

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError):
            Tree(-1)

    def test_node_count(self):
        t = Tree.make(0, {0: Tree.make(1, {0: Tree(2), 1: Tree(3)}), 1: Tree(4)})
        assert t.node_count() == 5

    def test_node_at(self):
        t = Tree.make(0, {0: Tree.make(1, {1: Tree(3)})})
        assert t.node_at(()).label == 0
        assert t.node_at((0,)).label == 1
        assert t.node_at((0, 1)).label == 3
        with pytest.raises(KeyError):
            t.node_at((1,))

    def test_paths_preorder(self):
        t = Tree.make(0, {0: Tree(1), 1: Tree.make(2, {0: Tree(3)})})
        seen = list(t.paths())
        assert seen[0] == ((), 0)
        assert ((1, 0), 3) in seen
        assert len(seen) == t.node_count()

    def test_with_subtree(self):
        t = Tree.make(0, {0: Tree(1)})
        grown = t.with_subtree((0,), 1, Tree(5))
        assert grown.node_at((0, 1)).label == 5
        # original untouched
        assert t.node_at((0,)).children == ()

    def test_with_subtree_occupied_slot(self):
        t = Tree.make(0, {0: Tree(1)})
        with pytest.raises(ValueError):
            t.with_subtree((), 0, Tree(9))

    def test_with_subtree_bad_path(self):
        with pytest.raises(KeyError):
            Tree(0).with_subtree((1,), 0, Tree(2))


class TestTreeSerialization:
    def test_named_form_round_trip(self):
        s = small_schema()
        t = Tree.make(0, {0: Tree(1), 1: Tree(2)})
        blob = t.to_dict(schema=s)
        assert blob["label"] == "a"
        assert set(blob["children"]) == {"next", "left"}
        assert Tree.from_dict(blob, schema=s) == t

    def test_from_dict_rejects_unknown_names(self):
        s = small_schema()
        with pytest.raises(KeyError):
            Tree.from_dict({"label": "qq", "children": {}}, schema=s)


def trees(n_tokens: int, n_attrs: int):
    """Trees with labels below n_tokens and children under attributes below n_attrs."""
    labels = st.integers(0, n_tokens - 1)
    return st.recursive(
        labels.map(Tree),
        lambda kids: st.builds(
            Tree.make, labels, st.dictionaries(st.integers(0, n_attrs - 1), kids, max_size=n_attrs)
        ),
        max_leaves=30,
    )


class TestTreeDictProperties:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(tree=trees(5, 2))
    def test_round_trip_through_json(self, tree):
        s = small_schema()
        assert Tree.from_dict(json.loads(json.dumps(tree.to_dict(s))), s) == tree
        # preorder rows, each naming its parent by the row index of its path
        index = {path: i for i, (path, _) in enumerate(tree.paths())}
        rows = [(label, path[-1] if path else -1, index[path[:-1]]) for path, label in tree.paths()]
        assert Tree.from_parents(rows) == tree

    @settings(derandomize=True, database=None, max_examples=10, deadline=None)
    @given(depth=st.integers(1000, 6000), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_of_deep_chains(self, depth, seed):
        # labels and attributes vary down the chain, and each node may carry a leaf beside it
        rng = np.random.default_rng(seed)
        tree = Tree(int(rng.integers(5)))
        for _ in range(depth - 1):
            attr = int(rng.integers(2))
            kids = {attr: tree}
            if rng.random() < 0.5:
                kids[1 - attr] = Tree(int(rng.integers(5)))
            tree = Tree.make(int(rng.integers(5)), kids)
        s = small_schema()
        assert Tree.from_dict(tree.to_dict(s), s) == tree


def deep_chain(depth: int) -> Tree:
    tree = Tree(1)
    for _ in range(depth - 1):
        tree = Tree.make(0, {0: tree})
    return tree


class TestDeepTrees:
    """Depth is bounded by memory, not by Python's recursion limit."""

    DEPTH = 5000

    def test_node_count(self):
        assert deep_chain(self.DEPTH).node_count() == self.DEPTH

    def test_dict_round_trip(self):
        s = small_schema()
        tree = deep_chain(self.DEPTH)
        blob = tree.to_dict(s)
        node, depth = blob, 1
        while node["children"]:
            assert node["label"] == "a" and list(node["children"]) == ["next"]
            node, depth = node["children"]["next"], depth + 1
        assert depth == self.DEPTH and node["label"] == "b"
        assert Tree.from_dict(blob, s) == tree

    def test_malformed_leaf_of_deep_chain(self):
        blob = deep_chain(self.DEPTH).to_dict(small_schema())
        node = blob
        while node["children"]:
            node = node["children"]["next"]
        node["children"] = {"next": 5}
        with pytest.raises(ValueError, match="JSON object"):
            Tree.from_dict(blob, small_schema())

    def test_equality_and_hash(self):
        a, b = deep_chain(self.DEPTH), deep_chain(self.DEPTH)
        assert a == b and hash(a) == hash(b)
        # identical but for the leaf's label
        c = Tree(2)
        for _ in range(self.DEPTH - 1):
            c = Tree.make(0, {0: c})
        assert a != c

    def test_with_subtree_at_depth(self):
        tree = deep_chain(self.DEPTH)
        path = (0,) * (self.DEPTH - 1)
        grown = tree.with_subtree(path, 1, Tree(2))
        assert grown.node_at(path + (1,)) == Tree(2)
        assert grown.node_count() == self.DEPTH + 1

    def test_repr(self):
        assert repr(Tree.make(3, {0: Tree(5)})) == (
            "Tree(label=3, children=((0, Tree(label=5, children=())),))"
        )
        text = repr(deep_chain(self.DEPTH))
        assert text.count("Tree(label=") == self.DEPTH
        assert text.endswith("Tree(label=1, children=())" + "),))" * (self.DEPTH - 1))

    def test_fold_order(self):
        t = Tree.make(0, {1: Tree(2), 0: Tree.make(3, {0: Tree(4)})})
        seen = []
        total = t.fold(lambda node, kids: seen.append(node.label) or node.label + sum(kids))
        assert seen == [4, 3, 2, 0]  # children before parents, in attribute order
        assert total == 9
