"""Grammar compilation, the symbolic reference parser, and grammar files.

A grammar is a list of (pattern tokens, replacement token) rules.
compile_grammar turns each rule into the token indices of a parser.Rule,
once for both parsers: the vector engine compares its slots' head labels
with them, and the symbolic parser runs the same parser.rewrites schedule
over plain tokens, building trees. It is the oracle the vector engine is
measured against.
"""

from __future__ import annotations

import json
from math import comb
from pathlib import Path
from typing import Sequence

import numpy as np

from .embedding import Embedding, bt_encode, memo_product
from .exceptions import ArityExceededError
from .parser import Rule, RuleSet, parse_vectors, rewrites
from .schema import NEXT, Schema, Tree
from .vectors import BTVector

GrammarRules = Sequence[tuple[Sequence[str], str]]


def arg_attributes(schema: Schema) -> list[str]:
    """The attributes a rewrite binds window members under: arg*, in schema order."""
    return [a for a in schema.attributes if a.startswith("arg")]


def compile_grammar(schema: Schema, grammar: GrammarRules) -> tuple[Rule, ...]:
    """Each rule's token indices, checked against the schema's argument attributes.

    ArityExceededError when the schema has no arg* attributes or a pattern is
    longer than it has; ValueError for an empty pattern.
    """
    n_args = len(arg_attributes(schema))
    if not n_args:
        raise ArityExceededError("schema has no argument attributes")
    rules = []
    for pattern, replacement in grammar:
        if len(pattern) == 0:
            raise ValueError("empty rule pattern")
        if len(pattern) > n_args:
            raise ArityExceededError(
                f"pattern {tuple(pattern)} needs {len(pattern)} argument "
                f"attributes, schema provides {n_args}"
            )
        rules.append(Rule(tuple(schema.token_index(t) for t in pattern), schema.token_index(replacement)))
    return tuple(rules)


def compile_rules(e: Embedding, grammar: GrammarRules) -> RuleSet:
    """The grammar's compiled rules, the embedding's token probes, and a
    binding that knows each rule's node over its own pattern tokens.

    A rule applied to exact input tokens always builds the same node:
    bt_encode of the replacement with the pattern's tokens as its arg*
    children. bind(k, slot) is e.bind under the k-th argument attribute, and
    a slot bitwise equal to one of these nodes reads the node's image from a
    memo_product memo, as Embedding.bind reads a token's. Keyed by argument
    position and rule, the memo holds at most n_rules * n_args vectors.
    """
    rules = compile_grammar(e.schema, grammar)
    args = [e.schema.attribute_index(a) for a in arg_attributes(e.schema)]
    trees = [Tree.make(r.replacement, dict(zip(args, map(Tree, r.pattern)))) for r in rules]
    nodes = np.array([bt_encode(e, tree).data for tree in trees])
    images: dict[tuple[int, int], np.ndarray] = {}

    def bind(k: int, slot: np.ndarray) -> np.ndarray:
        return memo_product(lambda y: e.bind(args[k], y), slot, nodes, images, k)

    return RuleSet(rules, e.token_vectors, bind, e.fingerprint)


def parse(e: Embedding, tokens: Sequence[str], ruleset: RuleSet) -> BTVector:
    """Encode the input tokens as slots and run the vector engine."""
    slots = [e.wrap(e.token_vector(t)) for t in tokens]
    return parse_vectors(slots, ruleset)


def symbolic_parse(grammar: GrammarRules, tokens: Sequence[str], schema: Schema) -> Tree | None:
    """Reference parser: the engine's rewrites, applied to trees.

    Returns the parse tree, with window members bound under the argument
    attributes, or None when rewriting halts on several slots or there are no
    tokens. Raises the errors of compile_grammar, and StepBudgetExceededError
    past the engine's step_budget, as the engine does.
    """
    rules = compile_grammar(schema, grammar)
    arg_idx = [schema.attribute_index(a) for a in arg_attributes(schema)]
    slots = [Tree(schema.token_index(t)) for t in tokens]
    for rule, j in rewrites([s.label for s in slots], rules):
        m = len(rule.pattern)
        slots[j : j + m] = [Tree.make(rule.replacement, dict(zip(arg_idx, slots[j : j + m])))]
    return slots[0] if len(slots) == 1 else None


def balanced_parens_grammar() -> list[tuple[tuple[str, ...], str]]:
    return [(("L", "R"), "E"), (("L", "E", "R"), "E"), (("E", "E"), "E")]


def balanced_parens_schema() -> Schema:
    return Schema(
        tokens=("L", "R", "E", NEXT, "arg1", "arg2", "arg3"),
        attributes=(NEXT, "arg1", "arg2", "arg3"),
    )


# Longest word random_balanced samples: its draws are numpy int64 ranges, and
# the first is over Catalan(length / 2) words, which passes 2**63 at length 72.
MAX_BALANCED_LENGTH = 70


def ballot_count(remaining: int, height: int) -> int:
    """Count the walks of `remaining` +-1 steps from `height` to 0 that stay >= 0.

    The ballot closed form comb(r, u) - comb(r, u - 1), with u = (r - h) / 2
    up steps, is exact in Python integers.
    """
    if height < 0 or height > remaining or (remaining - height) % 2:
        return 0
    u = (remaining - height) // 2
    return comb(remaining, u) - (comb(remaining, u - 1) if u else 0)


def random_balanced(length: int, rng) -> list[str]:
    """Uniform balanced L/R string of the given even length via ballot counting.

    Exact integer counts of completions keep the distribution uniform over
    all Dyck words of that length.
    """
    if length < 0 or length % 2:
        raise ValueError("length must be even and non-negative")
    if length > MAX_BALANCED_LENGTH:
        raise ValueError(f"length {length} exceeds the sampler's limit of {MAX_BALANCED_LENGTH}")
    word = []
    h = 0
    for i in range(length):
        up = ballot_count(length - i - 1, h + 1)
        down = ballot_count(length - i - 1, h - 1)
        pick_up = int(rng.integers(up + down)) < up
        word.append("L" if pick_up else "R")
        h += 1 if pick_up else -1
    return word


def save_grammar(grammar: GrammarRules, path: str | Path) -> None:
    payload = {
        "rules": [
            {"pattern": list(pattern), "replacement": replacement}
            for pattern, replacement in grammar
        ]
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def load_grammar(path: str | Path) -> list[tuple[tuple[str, ...], str]]:
    """Read a grammar file, raising ValueError on a defect in its shape."""
    with open(path) as f:
        payload = json.load(f)
    rules = payload.get("rules") if isinstance(payload, dict) else None
    if not isinstance(rules, list) or not all(isinstance(r, dict) for r in rules):
        raise ValueError("grammar must be a JSON object with a 'rules' list of objects")
    for r in rules:
        pattern = r.get("pattern")
        if not isinstance(pattern, list) or not all(isinstance(t, str) for t in pattern):
            raise ValueError("rule pattern must be a list of token names")
        if not isinstance(r.get("replacement"), str):
            raise ValueError("rule replacement must be a token name")
    return [(tuple(r["pattern"]), r["replacement"]) for r in rules]
