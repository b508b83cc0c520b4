from __future__ import annotations

import ast
import itertools
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import btembed.parser
from btembed import (
    ArityExceededError,
    NoParseError,
    SchemaMismatchError,
    StepBudgetExceededError,
    Tree,
    arg_attributes,
    balanced_parens_grammar,
    balanced_parens_schema,
    bt_encode,
    compile_rules,
    decode,
    make_embedding,
    make_sweep_schema,
    match_window,
    parse,
    parse_vectors,
    random_balanced,
    symbolic_parse,
)
from btembed.harness import cell_seed, trial_rng
from btembed.parser import apply_replacement, rewrites, step_budget

GRAMMAR = balanced_parens_grammar()
SCHEMA = balanced_parens_schema()
UNARY_CHAIN = [((x,), y) for x, y in itertools.pairwise(["L", "R", "E", "next", "arg1", "arg2"])]
UNARY_CYCLE = [(("L",), "R"), (("R",), "L")]


def tok(e, name):
    return e.token_vector(name).copy()


def heads_of(names):
    return [SCHEMA.token_index(n) for n in names]


def restart_scan(grammar, tokens, schema) -> Tree | None:
    """Reference symbolic parser with its scan written out: first rule,
    leftmost window, restart after each hit, and at most (n - 1) + u (2n - 1)
    rewrites for n tokens and u unary rules."""
    arg_idx = [schema.attribute_index(a) for a in arg_attributes(schema)]
    slots = [Tree(schema.token_index(t)) for t in tokens]
    if not slots:
        return None
    compiled = [(tuple(schema.token_index(t) for t in p), schema.token_index(r)) for p, r in grammar]
    n, u = len(slots), sum(len(p) == 1 for p, _ in compiled)
    budget, steps = (n - 1) + u * (2 * n - 1), 0
    while True:
        hit = False
        for pattern, replacement in compiled:
            m = len(pattern)
            for j in range(len(slots) - m + 1):
                if all(slots[j + k].label == pattern[k] for k in range(m)):
                    kids = {arg_idx[k]: slots[j + k] for k in range(m)}
                    slots[j : j + m] = [Tree.make(replacement, kids)]
                    steps += 1
                    if steps > budget:
                        raise StepBudgetExceededError(f"exceeded {budget} rewrite steps")
                    hit = True
                    break
            if hit:
                break
        if not hit:
            return slots[0] if len(slots) == 1 else None


def outcome(parser, *args):
    """A parser's result, or the type and message of the budget error it raised."""
    try:
        return parser(*args)
    except StepBudgetExceededError as err:
        return type(err), str(err)


def balanced_words(length):
    """Every balanced L/R word of the given length, by brute force."""
    words = []
    for bits in itertools.product("LR", repeat=length):
        depth = 0
        for c in bits:
            depth += 1 if c == "L" else -1
            if depth < 0:
                break
        if depth == 0:
            words.append(list(bits))
    return words


# lengths 2..10 hold 1 + 2 + 5 + 14 + 42 words
SHORT_WORDS = [w for length in range(2, 11, 2) for w in balanced_words(length)]


@st.composite
def balanced_word(draw, max_length):
    """A non-empty balanced L/R word of even length up to max_length."""
    length = 2 * draw(st.integers(1, max_length // 2))
    word, height = [], 0
    for i in range(length):
        remaining = length - i
        up = height == 0 or (height < remaining and draw(st.booleans()))
        word.append("L" if up else "R")
        height += 1 if up else -1
    return word


class TestCompiledRules:
    def test_pattern_is_token_indices(self, parens_ruleset):
        L, R, E = (SCHEMA.token_index(t) for t in ("L", "R", "E"))
        assert [r.pattern for r in parens_ruleset.rules] == [(L, R), (L, E, R), (E, E)]

    def test_replacement_is_token_index(self, parens_ruleset):
        E = SCHEMA.token_index("E")
        assert [r.replacement for r in parens_ruleset.rules] == [E, E, E]

    def test_matrices_are_the_embeddings_own(self, parens_embedding, parens_ruleset):
        # head_probes is the only array the rule set holds, and it is the embedding's
        arrays = [f.name for f in fields(parens_ruleset)
                  if isinstance(getattr(parens_ruleset, f.name), np.ndarray)]
        assert arrays == ["head_probes"]
        probes = parens_ruleset.head_probes
        assert np.shares_memory(probes, parens_embedding.token_vectors)
        assert not probes.flags.owndata
        with pytest.raises(ValueError):
            probes[0, 0] = 1.0

    def test_pattern_too_wide(self, parens_embedding):
        with pytest.raises(ArityExceededError):
            compile_rules(parens_embedding, [(("L", "L", "R", "R"), "E")])

    def test_schema_without_arg_attrs(self):
        e = make_embedding(make_sweep_schema(4, 1), 64, 1)
        with pytest.raises(ArityExceededError):
            compile_rules(e, [(("t0", "t1"), "t2")])

    def test_empty_pattern(self, parens_embedding):
        with pytest.raises(ValueError):
            compile_rules(parens_embedding, [((), "E")])

    @pytest.mark.parametrize(
        "grammar, error",
        [([((), "E")], ValueError), ([(("L", "L", "R", "R"), "E")], ArityExceededError)],
        ids=["empty", "too-wide"],
    )
    def test_symbolic_parse_raises_the_compile_errors(self, parens_embedding, grammar, error):
        with pytest.raises(error) as compiled:
            compile_rules(parens_embedding, grammar)
        with pytest.raises(error) as symbolic:
            symbolic_parse(grammar, ["L", "L", "R", "R"], SCHEMA)
        assert str(symbolic.value) == str(compiled.value)

    def test_symbolic_parse_needs_arg_attrs(self):
        with pytest.raises(ArityExceededError, match="no argument attributes"):
            symbolic_parse([(("t0", "t1"), "t2")], ["t0", "t1"], make_sweep_schema(4, 1))


class TestWindows:
    def test_head_labels(self, parens_embedding, parens_ruleset):
        # the one rule L E R -> E fires only if each slot's probe reads its token
        e = parens_embedding
        ruleset = replace(parens_ruleset, rules=parens_ruleset.rules[1:2])
        v = parse_vectors([e.wrap(tok(e, n)) for n in ("L", "E", "R")], ruleset)
        expected = e.token_vectors[SCHEMA.token_index("E")].copy()
        for k, n in enumerate(("L", "E", "R")):
            expected += ruleset.bind(k, tok(e, n))
        np.testing.assert_array_equal(v.data, expected)

    def test_match_basic(self, parens_ruleset):
        lr, ler, ee = parens_ruleset.rules
        heads = heads_of(["L", "R"])
        assert match_window(lr, heads, 0)
        assert not match_window(ee, heads, 0)
        # window wider than the remaining slots can never match
        assert not match_window(ler, heads, 0)

    def test_match_reads_current_slots(self, parens_ruleset):
        # a match reads the head labels the list holds now
        lr, _, ee = parens_ruleset.rules
        heads = heads_of(["L", "R"])
        assert match_window(lr, heads, 0)
        heads[:] = heads_of(["E", "E"])
        assert not match_window(lr, heads, 0)
        assert match_window(ee, heads, 0)

    def test_rewrites_collapse_heads_after_each_yield(self, parens_ruleset):
        # L R L R: both pairs left to right, then E E; the window's labels
        # collapse to the rule's token once the caller has taken the rewrite
        lr, _, ee = parens_ruleset.rules
        heads = heads_of(["L", "R", "L", "R"])
        seen = []
        for rule, j in rewrites(heads, parens_ruleset.rules):
            seen.append((rule, j, list(heads)))
        assert seen == [
            (lr, 0, heads_of(["L", "R", "L", "R"])),
            (lr, 1, heads_of(["E", "L", "R"])),
            (ee, 0, heads_of(["E", "E"])),
        ]
        assert heads == heads_of(["E"])

    def test_rewrites_stop_at_the_budget(self, parens_embedding):
        # one slot and L -> R -> L: the budget is 2, the third rewrite raises
        rules = compile_rules(parens_embedding, UNARY_CYCLE).rules
        scan = rewrites(heads_of(["L"]), rules)
        assert [rule for rule, _ in itertools.islice(scan, 2)] == list(rules)
        with pytest.raises(StepBudgetExceededError, match="exceeded 2 rewrite steps"):
            next(scan)

    def test_apply_replacement_builds_node(self, parens_embedding, parens_ruleset):
        e = parens_embedding
        slots = [tok(e, "L"), tok(e, "R")]
        apply_replacement(parens_ruleset.rules[0], slots, 0, parens_ruleset)
        assert len(slots) == 1
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
        # both bind the input tokens by the same memoized leaf images
        np.testing.assert_array_equal(slots[0], expected.data)

    def test_only_exact_token_vectors_are_leaves(self, parens_embedding, parens_ruleset):
        e = parens_embedding
        L, arg1 = SCHEMA.token_index("L"), SCHEMA.attribute_index("arg1")
        nudged = tok(e, "L")
        nudged[0] += 1e-9
        # the nudged slot still reads as L, so L R parses
        v = parse_vectors([e.wrap(nudged), e.wrap(tok(e, "R"))], parens_ruleset)
        rewritten = e.token_vectors[SCHEMA.token_index("E")] + e.bind(arg1, nudged)
        np.testing.assert_array_equal(v.data, rewritten + parens_ruleset.bind(1, tok(e, "R")))
        memo = parens_ruleset.bind(0, tok(e, "L"))
        assert parens_ruleset.bind(0, tok(e, "L")) is memo
        assert e._leaf_images[arg1, L] is memo
        # a slot 1e-9 off its token's vector, in its first entry or a later
        # one, gets a fresh product, not the memo
        later = tok(e, "L")
        later[5] += 1e-9
        for off in (nudged, later):
            fresh = parens_ruleset.bind(0, off)
            assert fresh is not memo and fresh.flags.writeable
            np.testing.assert_array_equal(fresh, e.attribute_matrices[arg1] @ off)


class TestRuleNodes:
    """compile_rules binds a rule's node over input tokens from a memo."""

    def test_only_exact_rule_nodes_read_the_memo(self, parens_embedding, counting):
        e, count = counting(parens_embedding)
        ruleset = compile_rules(e, GRAMMAR)
        slots = [tok(e, "L"), tok(e, "R")]
        apply_replacement(ruleset.rules[0], slots, 0, ruleset)
        node = slots[0]
        arg2 = e.attribute_matrices[SCHEMA.attribute_index("arg2")]
        count[0] = 0
        memo = ruleset.bind(1, node)
        assert ruleset.bind(1, node.copy()) is memo and not memo.flags.writeable
        # filled on first use by the product it stands for, and only then
        assert count[0] == 1
        np.testing.assert_array_equal(memo, arg2 @ node)
        # a slot 1e-9 off the node, in its first entry or a later one, gets
        # a product of its own
        for i in (0, 5):
            off = node.copy()
            off[i] += 1e-9
            count[0] = 0
            fresh = ruleset.bind(1, off)
            assert count[0] == 1 and fresh is not memo and fresh.flags.writeable
            np.testing.assert_array_equal(fresh, arg2 @ off)

    def test_memo_holds_a_node_per_rule(self, parens_embedding, counting):
        # each rule over its own pattern tokens builds its node; binding the
        # three nodes under the three arg* attributes, twice, fills 3 * 3
        # images and runs no other product
        e, count = counting(parens_embedding)
        ruleset = compile_rules(e, GRAMMAR)
        nodes = []
        for rule in ruleset.rules:
            slots = [e.token_vectors[t].copy() for t in rule.pattern]
            apply_replacement(rule, slots, 0, ruleset)
            nodes.append(slots[0])
        count[0] = 0
        for _ in range(2):
            for node in nodes:
                for k in range(3):
                    ruleset.bind(k, node)
        assert count[0] == 9


class TestParse:
    def sym(self, word):
        return symbolic_parse(GRAMMAR, word, SCHEMA)

    def test_single_nonterminal_is_a_fixpoint(self, parens_embedding, parens_ruleset):
        # one slot and no unary rules: the budget is 0 rewrites
        v = parse(parens_embedding, ["E"], parens_ruleset)
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

    @pytest.fixture(scope="class")
    def c09_embeddings(self):
        return {s: make_embedding(SCHEMA, 1000, cell_seed(s, 3, 1000, 12)) for s in (0, 9973)}

    @pytest.fixture(scope="class")
    def c09_embedding(self, c09_embeddings):
        return c09_embeddings[0]

    def assert_parses_exactly(self, e, words):
        """Each word parses, under a warm rule set and under a fresh one, to
        bitwise bt_encode of the oracle tree. An L/R word binds only rule 0's
        node over input tokens, under arg1 and arg2, so the short words fill
        every image the warm set will read."""
        warm = compile_rules(e, GRAMMAR)
        for word in SHORT_WORDS:
            parse(e, word, warm)
        for word in words:
            expected = bt_encode(e, self.sym(word)).data
            for ruleset in (warm, compile_rules(e, GRAMMAR)):
                np.testing.assert_array_equal(parse(e, word, ruleset).data, expected, err_msg=str(word))

    def test_every_short_word_parses_exactly(self, c09_embeddings):
        assert len(SHORT_WORDS) == 64
        for e in c09_embeddings.values():
            self.assert_parses_exactly(e, SHORT_WORDS)

    def test_long_words_parse_exactly(self, c09_embeddings):
        # long words, where the slots carry many nodes and their probes the most cross-talk
        e = make_embedding(SCHEMA, 1000, 3)
        self.assert_parses_exactly(e, [random_balanced(40, trial_rng(7, 3, 1000, 40, t)) for t in range(30)])
        words = [random_balanced(n, trial_rng(7, 3, 1000, n, t)) for n in range(12, 65, 2) for t in range(10)]
        for e in c09_embeddings.values():
            self.assert_parses_exactly(e, words)

    def tall_members(self, word):
        """The oracle tree's non-root nodes of height >= 2."""

        def combine(node, subs):
            return (1 + max(h for h, _ in subs) if subs else 0, sum(n + (h >= 2) for h, n in subs))

        return self.sym(word).fold(combine)[1]

    def test_warm_parse_binds_only_tall_members(self, c09_embedding, counting):
        # a member that is an input token or a rule's node over input tokens,
        # height 0 or 1, reads a memo; each member of height >= 2 costs one
        # product, and the root is never bound
        e, count = counting(c09_embedding)
        ruleset = compile_rules(e, GRAMMAR)
        for word in SHORT_WORDS:
            parse(e, word, ruleset)
            count[0] = 0
            parse(e, word, ruleset)
            assert count[0] == self.tall_members(word), word

    def test_decode_rotates_only_tall_nodes(self, c09_embedding, counting):
        # at probe_depth 2 a node's child slots are scored from its ancestor two
        # levels up, so the decode makes one product per non-root node of
        # height >= 2, as many as the warm parse
        e, count = counting(c09_embedding)
        assert e.probe_depth == 2
        for word in SHORT_WORDS:
            v = bt_encode(c09_embedding, self.sym(word))
            count[0] = 0
            assert decode(e, v) == self.sym(word), word
            assert count[0] == self.tall_members(word), word

    def test_replacement_head_is_the_rule_token(self, c09_embedding):
        # a probe of this word's replacement slots misreads a head once their
        # members' cross terms grow, and the parse stuck with several slots
        e = c09_embedding
        word = random_balanced(24, trial_rng(7, 3, 1000, 24, 38))
        v = parse(e, word, compile_rules(e, GRAMMAR))
        np.testing.assert_array_equal(v.data, bt_encode(e, self.sym(word)).data)

    @settings(
        derandomize=True,
        database=None,
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(word=balanced_word(20))
    def test_parse_is_bt_encode_of_the_oracle_tree(self, parens_embedding, parens_ruleset, word):
        # a reduction binds by the same rule as bt_encode, so the vectors match bit for bit
        v = parse(parens_embedding, word, parens_ruleset)
        expected = bt_encode(parens_embedding, self.sym(word))
        np.testing.assert_array_equal(v.data, expected.data, err_msg=str(word))

    def test_unbalanced_raises(self, parens_embedding, parens_ruleset):
        with pytest.raises(NoParseError):
            parse(parens_embedding, ["L", "L"], parens_ruleset)

    def test_empty_input_raises(self, parens_embedding, parens_ruleset):
        with pytest.raises(NoParseError):
            parse(parens_embedding, [], parens_ruleset)

    def test_step_budget_boundary(self, parens_embedding):
        # five acyclic unary rules on one token take exactly B = 0 + 5 * 1 rewrites,
        # one more than the old 4 n^2 default allowed
        e = parens_embedding
        ruleset = compile_rules(e, UNARY_CHAIN)
        assert step_budget(1, [r.pattern for r in ruleset.rules]) == 5
        tree = symbolic_parse(UNARY_CHAIN, ["L"], SCHEMA)
        assert tree.node_count() == 6
        assert decode(e, parse(e, ["L"], ruleset)) == tree

    @pytest.mark.parametrize(
        "word, budget", [(["L"], 2), (["L", "R"], 7), (["L", "R"] * 4, 37)], ids=["n1", "n2", "n8"]
    )
    def test_cyclic_unary_rules_exceed_the_budget(self, parens_embedding, word, budget):
        # L -> R -> L never halts; engine and oracle both stop after B = (n - 1) + 2 (2n - 1)
        ruleset = compile_rules(parens_embedding, UNARY_CYCLE)
        message = f"exceeded {budget} rewrite steps"
        with pytest.raises(StepBudgetExceededError, match=message):
            parse(parens_embedding, word, ruleset)
        with pytest.raises(StepBudgetExceededError, match=message):
            symbolic_parse(UNARY_CYCLE, word, SCHEMA)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(
        unary=st.lists(st.sampled_from([("L", "R"), ("L", "E"), ("R", "E")]), max_size=3),
        word=balanced_word(12),
        data=st.data(),
    )
    def test_acyclic_unary_rules_stay_in_budget(self, unary, word, data):
        # each unary rule rewrites a token to a later one in L, R, E: no cycle
        grammar = data.draw(st.permutations(GRAMMAR + [((x,), y) for x, y in unary]))
        tree = symbolic_parse(grammar, word, SCHEMA)
        assert tree is None or isinstance(tree, Tree)

    def test_foreign_slots_rejected(self, parens_embedding, parens_ruleset):
        other = make_embedding(SCHEMA, parens_embedding.dim, 12345)
        slots = [other.wrap(tok(other, "L")), other.wrap(tok(other, "R"))]
        with pytest.raises(SchemaMismatchError):
            parse_vectors(slots, parens_ruleset)

    def test_wrong_dim_slot_rejected(self, parens_embedding, parens_ruleset):
        e = parens_embedding
        with pytest.raises(SchemaMismatchError, match="dim 3"):
            parse_vectors([e.wrap(tok(e, "L")), e.wrap(np.ones(3))], parens_ruleset)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_slot_rejected(self, parens_embedding, parens_ruleset, bad):
        e = parens_embedding
        data = tok(e, "R")
        data[5] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            parse_vectors([e.wrap(tok(e, "L")), e.wrap(data)], parens_ruleset)


class TestOneSchedule:
    """symbolic_parse, which runs parser.rewrites, makes the trees and errors
    of the scan written out in restart_scan."""

    def agree(self, grammar, word):
        want = outcome(restart_scan, grammar, word, SCHEMA)
        assert outcome(symbolic_parse, grammar, word, SCHEMA) == want, word
        return want

    def test_every_short_word(self):
        for word in SHORT_WORDS:
            assert isinstance(self.agree(GRAMMAR, word), Tree)

    def test_long_words(self):
        for length in range(12, 65, 2):
            for t in range(40):
                self.agree(GRAMMAR, random_balanced(length, trial_rng(7, 3, 1000, length, t)))

    def test_near_misses(self):
        # unbalanced words halt on several slots
        for word in (["L", "L"], ["R", "L"], ["L", "R", "R"], ["L", "E", "E", "R", "L"], []):
            assert self.agree(GRAMMAR, word) is None

    @pytest.mark.parametrize("grammar", [UNARY_CHAIN, UNARY_CYCLE, GRAMMAR + UNARY_CHAIN[:2]])
    def test_unary_grammars(self, grammar):
        words = [["L"], ["R"], ["E"], ["L", "R"], ["L", "R"] * 4, ["L", "L", "R", "R"]]
        errors = {o[0] for o in (self.agree(grammar, word) for word in words) if isinstance(o, tuple)}
        assert errors == ({StepBudgetExceededError} if grammar is UNARY_CYCLE else set())


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
