"""
Measuring near-orthogonality of matrix-word images
==================================================

Everything above rests on one fact: independent rotations of independent
unit vectors stay nearly orthogonal. The probe samples depth-l products
of random attribute matrices applied to random unit vectors and reports
the worst pairwise overlap against the theoretical envelope.
"""

import numpy as np

from btembed import make_embedding, make_sweep_schema
from btembed.harness import jl_bound, run_separation_probe, separation_csv

schema = make_sweep_schema(50, 4)
rows = []
for d in (128, 512, 2000):
    e = make_embedding(schema, d, seed=d)
    rng = np.random.default_rng([0, d])
    rows.append(run_separation_probe(e, depth=4, samples=200, rng=rng))

print(separation_csv(rows))
for r in rows:
    print(
        f"d={r.d:5d}  worst overlap {r.max_abs_ip:.4f}"
        f"  bound {jl_bound(r.depth, r.samples, r.d):.4f}  violations {r.violations}"
    )

# depth-0 vectors obey a tighter constant than matrix words
print("bounds at n=200:", jl_bound(0, 200, 2000), "vs", jl_bound(4, 200, 2000))
