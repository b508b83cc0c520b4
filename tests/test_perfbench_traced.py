"""perfbench's traced names still resolve in btembed.

perfbench/workloads.py times btembed functions named in its TRACED table and
reads decode counts off decode_with_stats' stats. Its tracer skips a name it
cannot find, so a renamed function would read 0 there instead of failing.
TRACED is read with ast, so perfbench is neither imported nor edited. The
parser's traced functions must also be reached through the module attributes
the tracer replaces, or their metrics read 0 as well.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import numpy as np

from btembed import balanced_parens_grammar, bt_encode, decode_with_stats, parse, random_tree, symbolic_parse

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


def counted(monkeypatch, mod: str, name: str) -> list[int]:
    """Count calls of btembed.<mod>.<name> as perfbench's tracer sees them: by
    replacing every btembed module attribute bound to the function."""
    original = getattr(importlib.import_module(f"btembed.{mod}"), name)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module in [m for n, m in list(sys.modules.items()) if n == "btembed" or n.startswith("btembed.")]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counting)
    return calls


def test_parse_calls_the_traced_parser_functions(parens_embedding, parens_ruleset, monkeypatch):
    # an inlined or renamed function would go uncounted, and its metric read 0
    word = ["L", "L", "R", "L", "R", "R"]
    oracle = symbolic_parse(balanced_parens_grammar(), word, parens_embedding.schema)
    internal = oracle.fold(lambda node, subs: bool(node.children) + sum(subs))
    calls = {fn: counted(monkeypatch, "parser", fn) for fn in ("parse_vectors", "match_window", "apply_replacement")}
    parse(parens_embedding, word, parens_ruleset)
    assert calls["parse_vectors"] == [1]
    assert calls["apply_replacement"] == [internal] == [4]
    # windows tested per scan: L R at 1; L R at 2; L R, L E R, then E E at 1; L R, then L E R at 0
    assert calls["match_window"] == [2 + 3 + 7 + 3]
