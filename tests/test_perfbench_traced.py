"""perfbench's traced names still resolve in btembed.

perfbench/workloads.py times btembed functions named in its TRACED table and
reads decode counts off decode_with_stats' stats. Its tracer skips a name it
cannot find, so a renamed function would read 0 there instead of failing.
TRACED is read with ast, so perfbench is neither imported nor edited.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import numpy as np

from btembed import bt_encode, decode_with_stats, random_tree

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
# traced, but gone from btembed, so their metrics read 0 (ROADMAP item 4)
DEAD = {("transformer", "build_position_codes"), ("parser", "window_vector")}


def traced() -> dict[str, tuple[str, str]]:
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {WORKLOADS}")


def test_traced_functions_resolve():
    pairs = set(traced().values())
    module = {mod: importlib.import_module(f"btembed.{mod}") for mod, _ in pairs}
    missing = {(mod, fn) for mod, fn in pairs if not callable(getattr(module[mod], fn, None))}
    assert missing <= DEAD
    assert ("decoder", "decode_with_stats") in pairs


def test_decode_stats_carry_the_observed_counts(emb_small):
    tree = random_tree(3, 10, 2, np.random.default_rng(0))
    _, stats = decode_with_stats(emb_small, bt_encode(emb_small, tree))
    for name in ("visits", "probes", "nodes"):
        assert isinstance(getattr(stats, name), int)
    assert stats.nodes == 3
