"""
Reading a path out of a tree vector with attention blocks
=========================================================

A fixed-weight decoder stack answers "what labels lie along this path"
from the encoded vector alone. The prompt gives each slot the token of the
attribute that leads into it; each block relays the working vector one slot
on through attention and takes one more attribute step.
"""

from btembed import (
    Tree,
    XfConfig,
    bt_encode,
    make_embedding,
    make_sweep_schema,
    run_decoder,
)
from btembed.harness import random_tree, trial_rng

schema = make_sweep_schema(50, 3)
e = make_embedding(schema, dim=1500, seed=21)

rng = trial_rng(21, 2, 1500, 9, 0)
tree = random_tree(9, 50, 3, rng)
v = bt_encode(e, tree)

# pick a concrete root-to-node path and the labels that live on it
paths = sorted((p for p, _ in tree.paths()), key=len)
path = paths[-1]
want = [tree.label]
node = tree
for a in path:
    node = dict(node.children)[a]
    want.append(node.label)

got = run_decoder(e, v, path)
print("path:", list(path))
print("true labels:", want)
print("decoded:    ", got)

# the construction is saturation-robust: twice-as-hard gates, same answer
hard = XfConfig(attn_sharpness=200.0, gate_constant=2e4)
print("stable under 2x constants:", run_decoder(e, v, path, hard) == got)
