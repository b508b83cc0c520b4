"""
Parsing balanced parentheses in vector space
============================================

The rewrite engine never touches symbols. Each slot is given one head
label when it is created, by the decoder's half-margin token probe; a
window matches a rule when its head labels spell the rule's pattern, and
every reduction writes a combined tree vector back into the slot list.
Decoding the single surviving slot yields the parse tree.
"""

from btembed import (
    NoParseError,
    balanced_parens_grammar,
    balanced_parens_schema,
    compile_rules,
    decode,
    make_embedding,
    parse,
    random_balanced,
    symbolic_parse,
)
import numpy as np

schema = balanced_parens_schema()
e = make_embedding(schema, dim=1024, seed=5)
ruleset = compile_rules(e, balanced_parens_grammar())

word = ["L", "L", "R", "R", "L", "R"]
v = parse(e, word, ruleset)
tree = decode(e, v)
print("word:", " ".join(word))
print("parse tree nodes:", tree.node_count())

# the symbolic reference parser applies the same rules in the same order
ref = symbolic_parse(balanced_parens_grammar(), word, schema)
print("matches symbolic parser:", tree == ref)

# an unbalanced word gets stuck with several slots and no matching window
try:
    parse(e, ["L", "L"], ruleset)
except NoParseError as err:
    print("unbalanced word:", err)

# random Dyck words keep agreeing
rng = np.random.default_rng(2024)
hits = 0
for _ in range(20):
    w = random_balanced(8, rng)
    hits += decode(e, parse(e, w, ruleset)) == symbolic_parse(
        balanced_parens_grammar(), w, schema
    )
print("random length-8 agreement:", hits, "/ 20")
