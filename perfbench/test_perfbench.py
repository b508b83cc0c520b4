"""Smoke tests for the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

Every workload runs in-process at a tiny size, untraced and traced, and must
emit each metric BENCHMARK.json names, with its unit, and no failed
operation. frontier.py counts a tiny frontier class. run.py is run end to
end on the cheapest workload, and in a directory without btembed sources,
where it must fail without a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import frontier as frontier_script  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Small dimensions and inputs well inside capacity, so no operation fails.
TINY = {
    "tree_roundtrip": dict(dim=400, classes=(1, 2, 3, 4), trace_ops=4),
    "path_query": dict(dim=1000, classes=(0, 1, 2), trace_ops=3),
    "vector_parse": dict(dim=400, classes=(2, 4), trace_ops=4),
    "list_edit": dict(dim=400, classes=((1, 1), (2, 1), (1, 2)), trace_ops=3),
}
# A layer each workload's traced run must reach.
LAYER = {
    "tree_roundtrip": "embedding.bt_encode.calls",
    "path_query": "transformer.ffn1.calls",
    "vector_parse": "parser.match_window.calls",
    "list_edit": "io.load_embedding.calls",
}


def expected(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def check_result(result: dict, kind: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected(kind)


def test_workloads_are_named_in_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_untraced(name, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(workloads.WORKLOADS[name], **TINY[name]))
    result = workloads.run(name, seed=0, seconds=0.01, trace=False)
    check_result(result, "end_to_end")
    assert result["metrics"]["success_rate"]["value"] == 1.0  # error rate 0
    assert result["attempted"] >= workloads.MIN_OPS


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_traced(name, monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(workloads.WORKLOADS[name], **TINY[name]))
    result = workloads.run(name, seed=0, seconds=0.01, trace=True)
    check_result(result, "per_layer")
    metrics = result["metrics"]
    assert metrics["trace.ops"]["value"] == TINY[name]["trace_ops"]
    assert metrics["embedding.make_embedding.calls"]["value"] == 1
    assert metrics[LAYER[name]]["value"] > 0
    for key, m in metrics.items():
        if key.endswith(".self_ms"):
            total = metrics[key[: -len("self_ms")] + "total_ms"]["value"]
            assert 0.0 <= m["value"] <= total + 1e-9
    assert (tmp_path / f"trace_{name}_seed0.json").is_file()


def test_frontier_counts_each_class(monkeypatch):
    frontier = ((1, 1), (2, 1))
    w = dataclasses.replace(workloads.WORKLOADS["list_edit"], dim=400, frontier=frontier)
    monkeypatch.setitem(workloads.WORKLOADS, "list_edit", w)
    counts = frontier_script.measure("list_edit", seed=0, ops=3)
    assert counts == {str(c): {"attempted": 3, "failed": 0} for c in frontier}


def run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_run_end_to_end():
    proc = run_cli(ROOT, "--workload", "list_edit", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    check_result(json.loads(proc.stdout.splitlines()[-1]), "end_to_end")


def test_run_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_cli(tmp_path, "--workload", "list_edit", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
