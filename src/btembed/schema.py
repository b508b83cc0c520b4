"""Schemas and attribute-labeled trees.

A schema fixes an ordered token alphabet and an ordered attribute alphabet.
Attributes are reflexive: every attribute name is also a token, so paths can
be spoken about in the same vocabulary they traverse.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence, TypeVar

from .exceptions import DuplicateNameError, EmptyAlphabetError, NonReflexiveError

# The attribute that chains lists (encode_list, push).
NEXT = "next"

T = TypeVar("T")


@dataclass(frozen=True)
class Schema:
    """Ordered token and attribute alphabets.

    Args:
        tokens: distinct token names, order is load-bearing (it indexes the
            embedding's token matrix).
        attributes: distinct attribute names, each of which must also be a
            token name.
    """

    tokens: tuple[str, ...]
    attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if not self.tokens or not self.attributes:
            raise EmptyAlphabetError("schema needs at least one token and one attribute")
        if len(set(self.tokens)) != len(self.tokens):
            raise DuplicateNameError("token names must be distinct")
        if len(set(self.attributes)) != len(self.attributes):
            raise DuplicateNameError("attribute names must be distinct")
        missing = [a for a in self.attributes if a not in set(self.tokens)]
        if missing:
            raise NonReflexiveError(f"attributes must also be tokens, missing: {missing}")

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    def token_index(self, token: int | str) -> int:
        return _checked_index(token, self._token_lookup, "token")

    def attribute_index(self, attr: int | str) -> int:
        return _checked_index(attr, self._attribute_lookup, "attribute")

    @cached_property
    def _token_lookup(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.tokens)}

    @cached_property
    def _attribute_lookup(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.attributes)}

    @cached_property
    def attribute_token_indices(self) -> tuple[int, ...]:
        """Token index of each attribute name, in attribute order."""
        return tuple(self.token_index(a) for a in self.attributes)

    def to_dict(self) -> dict:
        return {"tokens": list(self.tokens), "attributes": list(self.attributes)}

    @classmethod
    def from_dict(cls, raw: dict) -> "Schema":
        """Read a schema mapping, raising typed errors on defects."""
        if not isinstance(raw, dict):
            raise ValueError("schema must be a JSON object")
        if "tokens" not in raw or "attributes" not in raw:
            raise EmptyAlphabetError("schema mapping needs 'tokens' and 'attributes'")
        for key in ("tokens", "attributes"):
            names = raw[key]
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise ValueError(f"schema {key} must be a list of strings")
        return cls(tuple(raw["tokens"]), tuple(raw["attributes"]))

    def canonical_json(self) -> str:
        """Stable serialization used for hashing and file embedding."""
        return json.dumps(self.to_dict(), separators=(",", ":"), sort_keys=True)

    def digest(self) -> bytes:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).digest()


def _checked_index(key: int | str, lookup: dict[str, int], kind: str) -> int:
    """The index of a name or of an in-range integer; KeyError for anything else."""
    idx = lookup.get(key, -1) if isinstance(key, str) else operator.index(key)
    if not 0 <= idx < len(lookup):
        raise KeyError(f"unknown {kind} {key!r}")
    return idx


@dataclass(frozen=True, eq=False)
class Tree:
    """Token-labeled tree with attribute-labeled edges.

    Children are keyed by attribute index, at most one child per attribute,
    and stored sorted by attribute index so structurally equal trees compare
    equal. A label or attribute index that is not an integer, or a child
    that is not a Tree, raises TypeError, and a negative index ValueError.
    Instances are immutable; from_parents builds one from flat parent rows.
    No method recurses, so depth is bounded only by memory.
    """

    label: int
    children: tuple[tuple[int, "Tree"], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if operator.index(self.label) < 0:
            raise ValueError("label index must be non-negative")
        attrs = [operator.index(a) for a, _ in self.children]
        for _, sub in self.children:
            if not isinstance(sub, Tree):
                raise TypeError("every child must be a Tree")
        if any(a < 0 for a in attrs):
            raise ValueError("attribute index must be non-negative")
        if attrs != sorted(set(attrs)):
            raise ValueError("children must be sorted by distinct attribute index")

    @classmethod
    def make(cls, label: int, children: dict[int, "Tree"] | None = None) -> "Tree":
        """Build a node from an unordered attribute-to-subtree mapping."""
        items = tuple(sorted((children or {}).items()))
        return cls(label, items)

    @classmethod
    def from_parents(cls, rows: Sequence[tuple[int, int, int]]) -> "Tree":
        """Build a tree bottom-up through make from (label, attr, parent) rows.

        Row 0 is the root, whose attr and parent are ignored. ValueError for
        no rows, a parent that is not an earlier row, or two rows in one
        (parent, attr) slot.
        """
        if not rows:
            raise ValueError("a tree needs a non-empty sequence of rows")
        kids: list[dict[int, Tree]] = [{} for _ in rows]
        for i in range(len(rows) - 1, 0, -1):
            label, attr, parent = rows[i]
            if not 0 <= parent < i:
                raise ValueError(f"row {i} has parent {parent}, not an earlier row")
            if attr in kids[parent]:
                raise ValueError(f"row {parent} has two children under attribute {attr}")
            kids[parent][attr] = cls.make(label, kids[i])
        return cls.make(rows[0][0], kids[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.label != b.label or [x for x, _ in a.children] != [y for y, _ in b.children]:
                return False
            stack += ((sa, sb) for (_, sa), (_, sb) in zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        return self.fold(lambda n, subs: hash((n.label, tuple(a for a, _ in n.children), *subs)))

    def __repr__(self) -> str:
        """The dataclass repr, built bottom-up."""

        def fmt(node: Tree, subs: list[str]) -> str:
            items = [f"({a!r}, {sub})" for (a, _), sub in zip(node.children, subs)]
            kids = f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"
            return f"Tree(label={node.label!r}, children={kids})"

        return self.fold(fmt)

    def child(self, attr: int) -> "Tree | None":
        for a, sub in self.children:
            if a == attr:
                return sub
        return None

    def fold(self, combine: Callable[["Tree", list[T]], T]) -> T:
        """Combine the tree in postorder: combine(node, results of its children, in order)."""
        stack = [(self, iter(self.children), [])]
        while True:
            node, pending, results = stack[-1]
            for _, sub in pending:
                stack.append((sub, iter(sub.children), []))
                break
            else:
                stack.pop()
                value = combine(node, results)
                if not stack:
                    return value
                stack[-1][2].append(value)

    def node_count(self) -> int:
        return self.fold(lambda node, counts: 1 + sum(counts))

    def node_at(self, path: tuple[int, ...]) -> "Tree":
        """Follow a sequence of attribute indices from this node."""
        node = self
        for step, attr in enumerate(path):
            nxt = node.child(attr)
            if nxt is None:
                raise KeyError(f"no child under attribute {attr} at path prefix {path[:step]}")
            node = nxt
        return node

    def paths(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Yield (path, label) for every node, preorder, root first."""
        stack = [((), self)]
        while stack:
            path, node = stack.pop()
            yield path, node.label
            for a, sub in reversed(node.children):
                stack.append((path + (a,), sub))

    def with_subtree(self, path: tuple[int, ...], attr: int, sub: "Tree") -> "Tree":
        """Return a copy with `sub` attached under `attr` at the node at `path`.

        The slot must be free; occupied slots raise ValueError.
        """
        spine = [self]
        for head in path:
            spine.append(spine[-1].child(head))
            if spine[-1] is None:
                raise KeyError(f"no child under attribute {head}")
        if spine[-1].child(attr) is not None:
            raise ValueError(f"attribute {attr} already occupied")
        rebuilt = sub
        for node, head in zip(reversed(spine), reversed((*path, attr))):
            rebuilt = Tree.make(node.label, {**dict(node.children), head: rebuilt})
        return rebuilt

    def to_dict(self, schema: Schema) -> dict:
        """Plain mapping form with labels and attributes named by the schema."""

        def named(node: Tree, kids: list[dict]) -> dict:
            children = {schema.attributes[a]: kid for (a, _), kid in zip(node.children, kids)}
            return {"label": schema.tokens[node.label], "children": children}

        return self.fold(named)

    @classmethod
    def from_dict(cls, raw: dict, schema: Schema) -> "Tree":
        """Read the named mapping form, raising ValueError on a malformed node."""
        rows: list[tuple[int, int, int]] = []
        stack = [(raw, -1, -1)]
        while stack:
            node, attr, parent = stack.pop()
            if not isinstance(node, dict):
                raise ValueError("tree node must be a JSON object")
            if not isinstance(node.get("label"), str):
                raise ValueError("tree label must be a string")
            kids_raw = node.get("children", {})
            if not isinstance(kids_raw, dict):
                raise ValueError("tree children must be a JSON object")
            rows.append((schema.token_index(node["label"]), attr, parent))
            stack += ((sub, schema.attribute_index(a), len(rows) - 1) for a, sub in kids_raw.items())
        return cls.from_parents(rows)
