"""Schemas and attribute-labeled trees.

A schema fixes an ordered token alphabet and an ordered attribute alphabet.
Attributes are reflexive: every attribute name is also a token, so paths can
be spoken about in the same vocabulary they traverse.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .exceptions import DuplicateNameError, EmptyAlphabetError, NonReflexiveError

# The attribute that chains lists; the transformer's path channel shifts along it too.
NEXT = "next"


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

    def token_index(self, name: str) -> int:
        try:
            return self._token_lookup[name]
        except KeyError:
            raise KeyError(f"unknown token {name!r}") from None

    def attribute_index(self, name: str) -> int:
        try:
            return self._attribute_lookup[name]
        except KeyError:
            raise KeyError(f"unknown attribute {name!r}") from None

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


@dataclass(frozen=True)
class Tree:
    """Token-labeled tree with attribute-labeled edges.

    Children are keyed by attribute index, at most one child per attribute,
    and stored sorted by attribute index so structurally equal trees compare
    equal. Instances are immutable.
    """

    label: int
    children: tuple[tuple[int, "Tree"], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if self.label < 0:
            raise ValueError("label index must be non-negative")
        attrs = [a for a, _ in self.children]
        if any(a < 0 for a in attrs):
            raise ValueError("attribute index must be non-negative")
        if attrs != sorted(set(attrs)):
            raise ValueError("children must be sorted by distinct attribute index")

    @classmethod
    def make(cls, label: int, children: dict[int, "Tree"] | None = None) -> "Tree":
        """Build a node from an unordered attribute-to-subtree mapping."""
        items = tuple(sorted((children or {}).items()))
        return cls(label, items)

    def child(self, attr: int) -> "Tree | None":
        for a, sub in self.children:
            if a == attr:
                return sub
        return None

    def node_count(self) -> int:
        return 1 + sum(sub.node_count() for _, sub in self.children)

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
        if not path:
            if self.child(attr) is not None:
                raise ValueError(f"attribute {attr} already occupied")
            return Tree(self.label, tuple(sorted(self.children + ((attr, sub),))))
        head = path[0]
        branch = self.child(head)
        if branch is None:
            raise KeyError(f"no child under attribute {head}")
        rebuilt = branch.with_subtree(path[1:], attr, sub)
        kids = tuple((a, rebuilt if a == head else s) for a, s in self.children)
        return Tree(self.label, kids)

    def to_dict(self, schema: Schema) -> dict:
        """Plain mapping form with labels and attributes named by the schema."""
        kids = {schema.attributes[a]: sub.to_dict(schema) for a, sub in self.children}
        return {"label": schema.tokens[self.label], "children": kids}

    @classmethod
    def from_dict(cls, raw: dict, schema: Schema) -> "Tree":
        """Read the named mapping form, raising ValueError on a malformed node."""
        if not isinstance(raw, dict):
            raise ValueError("tree node must be a JSON object")
        label = raw.get("label")
        if not isinstance(label, str):
            raise ValueError("tree label must be a string")
        kids_raw = raw.get("children", {})
        if not isinstance(kids_raw, dict):
            raise ValueError("tree children must be a JSON object")
        items = {
            schema.attribute_index(a): cls.from_dict(sub, schema) for a, sub in kids_raw.items()
        }
        return cls.make(schema.token_index(label), items)
