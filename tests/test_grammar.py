from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from btembed import (
    BTError,
    Tree,
    arg_attributes,
    balanced_parens_grammar,
    balanced_parens_schema,
    compile_rules,
    load_grammar,
    random_balanced,
    save_grammar,
    symbolic_parse,
)
from btembed.grammar import MAX_BALANCED_LENGTH, ballot_count


class TestParensFixtures:
    def test_schema_shape(self):
        s = balanced_parens_schema()
        assert s.tokens[:3] == ("L", "R", "E")
        assert s.attributes == ("next", "arg1", "arg2", "arg3")

    def test_arg_attributes(self):
        assert arg_attributes(balanced_parens_schema()) == ["arg1", "arg2", "arg3"]


class TestSymbolicParse:
    def test_rejects_unbalanced(self):
        g, s = balanced_parens_grammar(), balanced_parens_schema()
        assert symbolic_parse(g, ["L", "L"], s) is None
        assert symbolic_parse(g, ["R", "L"], s) is None
        assert symbolic_parse(g, ["L", "R", "R"], s) is None
        assert symbolic_parse(g, [], s) is None

    def test_accepts_balanced(self):
        g, s = balanced_parens_grammar(), balanced_parens_schema()
        tree = symbolic_parse(g, ["L", "L", "R", "L", "R", "R"], s)
        assert isinstance(tree, Tree)
        assert tree.label == s.token_index("E")
        # every L and R of the input survives as a leaf
        leaves = [lbl for _, lbl in tree.paths() if lbl != s.token_index("E")]
        assert len(leaves) == 6


class TestRandomBalanced:
    def test_always_balanced(self):
        rng = np.random.default_rng(110)
        for length in (2, 4, 8, 12):
            for _ in range(20):
                word = random_balanced(length, rng)
                assert len(word) == length
                h = 0
                for c in word:
                    h += 1 if c == "L" else -1
                    assert h >= 0
                assert h == 0

    def test_zero_length(self):
        assert random_balanced(0, np.random.default_rng(0)) == []

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            random_balanced(3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            random_balanced(-2, np.random.default_rng(0))

    def test_length_four_is_uniform(self):
        # only two Dyck words exist at length 4; a uniform sampler splits them
        rng = np.random.default_rng(111)
        hits = sum(random_balanced(4, rng) == ["L", "L", "R", "R"] for _ in range(400))
        assert 140 <= hits <= 260

    def test_deterministic(self):
        a = random_balanced(10, np.random.default_rng(7))
        b = random_balanced(10, np.random.default_rng(7))
        assert a == b

    def test_counts_match_brute_force(self):
        # ways[i][h]: balanced completions from position i at height h
        length = 20
        ways = [[0] * (length + 2) for _ in range(length + 1)]
        ways[length][0] = 1
        for i in range(length - 1, -1, -1):
            for h in range(length + 1):
                ways[i][h] = ways[i + 1][h + 1] + (ways[i + 1][h - 1] if h else 0)
        for i in range(length + 1):
            for h in range(-1, length + 2):
                want = ways[i][h] if 0 <= h <= length else 0
                assert ballot_count(length - i, h) == want

    def test_length_limit(self):
        assert MAX_BALANCED_LENGTH == 70
        assert len(random_balanced(70, np.random.default_rng(9))) == 70
        with pytest.raises(ValueError, match="70"):
            random_balanced(72, np.random.default_rng(9))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
# mostly rule-shaped values, so that compile_rules sees more than the shape check
TOKEN_NAMES = st.sampled_from(["L", "R", "E", "next", "arg1", "Q"])
RULE_FIELDS = {
    "pattern": st.lists(TOKEN_NAMES, max_size=5) | JSON_VALUES,
    "replacement": TOKEN_NAMES | JSON_VALUES,
}
GRAMMAR_FILES = JSON_VALUES | st.fixed_dictionaries(
    {"rules": st.lists(st.fixed_dictionaries(RULE_FIELDS) | JSON_VALUES, max_size=4) | JSON_VALUES}
)


class TestGrammarFiles:
    def test_round_trip(self, tmp_path):
        g = balanced_parens_grammar()
        p = tmp_path / "g.json"
        save_grammar(g, p)
        assert load_grammar(p) == [tuple(r) for r in g]

    def test_load_handwritten(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text('{"rules": [{"pattern": ["a", "b"], "replacement": "c"}]}\n')
        assert load_grammar(p) == [(("a", "b"), "c")]

    @pytest.mark.parametrize(
        "payload",
        [
            # the CLI tests cover the other malformed shapes
            {"rules": ["x"]},
            {"rules": [{"pattern": ["L", 1], "replacement": "E"}]},
            {"rules": [{"replacement": "E"}]},
        ],
    )
    def test_malformed_shape_raises_value_error(self, tmp_path, payload):
        p = tmp_path / "g.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_grammar(p)

    @settings(
        derandomize=True,
        database=None,
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(payload=GRAMMAR_FILES)
    def test_arbitrary_json_fails_typed(self, tmp_path, parens_embedding, payload):
        # any JSON value either compiles or raises one of the documented types
        p = tmp_path / "g.json"
        p.write_text(json.dumps(payload))
        try:
            compile_rules(parens_embedding, load_grammar(p))
        except (ValueError, KeyError, BTError):
            pass
