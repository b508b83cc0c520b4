"""The demos the README points to import only names the package has.

Each demo is read with ast, not run, so this stays cheap; running them takes
about 20 s in all.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_btembed_imports_resolve(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            module = node.module or ""
            if module.split(".")[0] != "btembed":
                continue
            imported = importlib.import_module(module)
            for alias in node.names:
                assert hasattr(imported, alias.name), f"{module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "btembed":
                    importlib.import_module(alias.name)
