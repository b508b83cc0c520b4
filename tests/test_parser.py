from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import btembed.parser
from btembed import (
    ArityExceededError,
    NoParseError,
    ParseState,
    SchemaMismatchError,
    StepBudgetExceededError,
    Tree,
    balanced_parens_grammar,
    balanced_parens_schema,
    bt_encode,
    compile_rules,
    decode,
    make_embedding,
    match_window,
    parse,
    parse_vectors,
    random_balanced,
    symbolic_parse,
    window_vector,
)
from btembed.parser import apply_replacement

GRAMMAR = balanced_parens_grammar()
SCHEMA = balanced_parens_schema()


def tok(e, name):
    return e.token_vector(name).copy()


class TestCompiledRules:
    def test_arity_from_pattern_norm(self, parens_ruleset):
        # chain terms are near-orthonormal, so the squared norm rounds to the length
        assert [int(np.rint(r.pattern @ r.pattern)) for r in parens_ruleset.rules] == [2, 3, 2]
        assert [r.arity for r in parens_ruleset.rules] == [2, 3, 2]

    def test_names(self, parens_ruleset):
        assert parens_ruleset.rules[1].name == "L E R -> E"

    def test_max_arity(self, parens_ruleset):
        assert len(parens_ruleset.arg_matrices) == 3

    def test_replacement_is_token_vector(self, parens_embedding, parens_ruleset):
        np.testing.assert_array_equal(
            parens_ruleset.rules[0].replacement, parens_embedding.token_vector("E")
        )

    def test_matrices_are_the_embeddings_own(self, parens_embedding, parens_ruleset):
        mats = parens_embedding.attribute_matrices
        for m in (parens_ruleset.next_matrix, *parens_ruleset.arg_matrices):
            assert np.shares_memory(m, mats)
            assert not m.flags.owndata
        with pytest.raises(ValueError):
            parens_ruleset.next_matrix[0, 0] = 1.0
        for rule in parens_ruleset.rules:
            assert not rule.replacement.flags.writeable

    def test_pattern_too_wide(self, parens_embedding):
        with pytest.raises(ArityExceededError):
            compile_rules(parens_embedding, [(("L", "L", "R", "R"), "E")])

    def test_schema_without_arg_attrs(self):
        from btembed import make_sweep_schema

        e = make_embedding(make_sweep_schema(4, 1), 64, 1)
        with pytest.raises(ArityExceededError):
            compile_rules(e, [(("t0", "t1"), "t2")])

    def test_empty_pattern(self, parens_embedding):
        with pytest.raises(ValueError):
            compile_rules(parens_embedding, [((), "E")])


class TestWindows:
    def test_window_vector_equals_fresh_chain(self, parens_embedding, parens_ruleset):
        from btembed import encode_list

        e = parens_embedding
        state = ParseState([tok(e, "L"), tok(e, "E"), tok(e, "R")])
        win = window_vector(state, 0, 3, parens_ruleset.next_matrix)
        np.testing.assert_allclose(win, encode_list(e, ["L", "E", "R"]).data, atol=1e-12)

    def test_match_basic(self, parens_embedding, parens_ruleset):
        e = parens_embedding
        lr, ler, ee = parens_ruleset.rules
        state = ParseState([tok(e, "L"), tok(e, "R")])
        assert match_window(lr, state, 0, parens_ruleset.next_matrix)
        assert not match_window(ee, state, 0, parens_ruleset.next_matrix)
        # window wider than the remaining slots can never match
        assert not match_window(ler, state, 0, parens_ruleset.next_matrix)

    def test_match_reads_current_slots(self, parens_embedding, parens_ruleset):
        e = parens_embedding
        lr, _, ee = parens_ruleset.rules
        state = ParseState([tok(e, "L"), tok(e, "R")])
        assert match_window(lr, state, 0, parens_ruleset.next_matrix)
        state.slots[0] = tok(e, "E")
        state.slots[1] = tok(e, "E")
        assert not match_window(lr, state, 0, parens_ruleset.next_matrix)
        assert match_window(ee, state, 0, parens_ruleset.next_matrix)

    def test_apply_replacement_builds_node(self, parens_embedding, parens_ruleset):
        e = parens_embedding
        state = ParseState([tok(e, "L"), tok(e, "R")])
        apply_replacement(parens_ruleset.rules[0], state, 0, parens_ruleset.arg_matrices)
        assert len(state.slots) == 1
        assert state.steps == 1
        expected = bt_encode(
            e,
            Tree.make(
                SCHEMA.token_index("E"),
                {
                    SCHEMA.attribute_index("arg1"): Tree(SCHEMA.token_index("L")),
                    SCHEMA.attribute_index("arg2"): Tree(SCHEMA.token_index("R")),
                },
            ),
        )
        np.testing.assert_allclose(state.slots[0], expected.data, atol=1e-12)


class TestParse:
    def sym(self, word):
        return symbolic_parse(GRAMMAR, word, SCHEMA)

    def test_single_nonterminal_is_a_fixpoint(self, parens_embedding, parens_ruleset):
        v = parse(parens_embedding, ["E"], parens_ruleset, max_steps=0)
        assert decode(parens_embedding, v) == Tree(SCHEMA.token_index("E"))

    def test_simplest_word(self, parens_embedding, parens_ruleset):
        v = parse(parens_embedding, ["L", "R"], parens_ruleset)
        assert decode(parens_embedding, v) == self.sym(["L", "R"])

    def test_nested_word(self, parens_embedding, parens_ruleset):
        v = parse(parens_embedding, ["L", "L", "R", "R"], parens_ruleset)
        tree = decode(parens_embedding, v)
        assert tree == self.sym(["L", "L", "R", "R"])
        assert tree.node_count() == 6

    def test_scan_order_pins_association(self, parens_embedding, parens_ruleset):
        # three concatenated pairs reduce left-first: ((E1 E2) E3)
        word = ["L", "R", "L", "R", "L", "R"]
        pair = Tree.make(
            SCHEMA.token_index("E"),
            {
                SCHEMA.attribute_index("arg1"): Tree(SCHEMA.token_index("L")),
                SCHEMA.attribute_index("arg2"): Tree(SCHEMA.token_index("R")),
            },
        )
        expected = Tree.make(
            SCHEMA.token_index("E"),
            {
                SCHEMA.attribute_index("arg1"): Tree.make(
                    SCHEMA.token_index("E"),
                    {
                        SCHEMA.attribute_index("arg1"): pair,
                        SCHEMA.attribute_index("arg2"): pair,
                    },
                ),
                SCHEMA.attribute_index("arg2"): pair,
            },
        )
        assert self.sym(word) == expected
        v = parse(parens_embedding, word, parens_ruleset)
        assert decode(parens_embedding, v) == expected

    def test_agrees_with_symbolic_oracle(self, parens_embedding, parens_ruleset):
        rng = np.random.default_rng(100)
        for length in (2, 4, 6, 8, 10):
            for _ in range(8):
                word = random_balanced(length, rng)
                v = parse(parens_embedding, word, parens_ruleset)
                assert decode(parens_embedding, v) == self.sym(word), word

    def test_unbalanced_raises(self, parens_embedding, parens_ruleset):
        with pytest.raises(NoParseError):
            parse(parens_embedding, ["L", "L"], parens_ruleset)

    def test_empty_input_raises(self, parens_embedding, parens_ruleset):
        with pytest.raises(NoParseError):
            parse(parens_embedding, [], parens_ruleset)

    def test_step_budget_boundary(self, parens_embedding, parens_ruleset):
        # L L R R needs exactly two rewrites
        word = ["L", "L", "R", "R"]
        parse(parens_embedding, word, parens_ruleset, max_steps=2)
        with pytest.raises(StepBudgetExceededError):
            parse(parens_embedding, word, parens_ruleset, max_steps=1)

    def test_three_pair_word_needs_five_steps(self, parens_embedding, parens_ruleset):
        word = ["L", "R", "L", "R", "L", "R"]
        parse(parens_embedding, word, parens_ruleset, max_steps=5)
        with pytest.raises(StepBudgetExceededError):
            parse(parens_embedding, word, parens_ruleset, max_steps=4)

    def test_foreign_slots_rejected(self, parens_embedding, parens_ruleset):
        other = make_embedding(SCHEMA, parens_embedding.dim, 12345)
        slots = [other.wrap(tok(other, "L")), other.wrap(tok(other, "R"))]
        with pytest.raises(SchemaMismatchError):
            parse_vectors(slots, parens_ruleset)


class TestEngineIsolation:
    """The engine module must stay blind to schemas, tokens, and trees."""

    ALLOWED_ABSOLUTE = {"numpy", "dataclasses", "typing", "__future__"}
    ALLOWED_RELATIVE = {"exceptions", "vectors"}

    def test_imports_restricted(self):
        src = Path(btembed.parser.__file__).read_text()
        tree = ast.parse(src)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    assert root in self.ALLOWED_ABSOLUTE, alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    assert node.module in self.ALLOWED_RELATIVE, node.module
                else:
                    root = (node.module or "").split(".")[0]
                    assert root in self.ALLOWED_ABSOLUTE, node.module

    def test_no_schema_or_token_access(self):
        # no attribute access into embedding internals anywhere in the engine
        src = Path(btembed.parser.__file__).read_text()
        tree = ast.parse(src)
        banned = {"schema", "token_vector", "token_vectors", "attribute_matrix", "attribute_matrices"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr not in banned, node.attr
