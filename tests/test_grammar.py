from __future__ import annotations

import numpy as np
import pytest

from btembed import (
    Tree,
    arg_attributes,
    balanced_parens_grammar,
    balanced_parens_schema,
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
