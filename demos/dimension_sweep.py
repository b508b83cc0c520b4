"""
Where the round trip breaks down
================================

Reliability is a race between the fixed 0.5 probe margin and crosstalk
that grows with structure size and shrinks with dimension. The sweep
harness measures the success surface over a (dimension, size) grid.
"""

from btembed import SweepSpec, run_sweep
from btembed.harness import sweep_csv

spec = SweepSpec(
    kind="tree",
    dims=(64, 128, 256, 512),
    sizes=(2, 4, 8, 12),
    trials=40,
    base_seed=0,
)
results = run_sweep(spec)

print(sweep_csv(results))

# the same grid as a small table, one row per dimension
dims = sorted({r.d for r in results})
sizes = sorted({r.l for r in results})
print("rate by d (rows) and size (cols):", sizes)
for d in dims:
    row = sorted((r for r in results if r.d == d), key=lambda r: r.l)
    print(f"  d={d:4d}  " + " ".join(f"{r.successes / r.trials:5.2f}" for r in row))
