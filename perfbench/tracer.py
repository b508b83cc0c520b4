"""Spans around btembed functions, recorded from outside the package.

A function is traced by replacing every reference to it in the loaded
``btembed`` modules with a wrapper, so inner calls such as
``transformer.run_decoder -> ffn1`` are caught at the attribute their caller
looks up, without editing the package. Code that calls btembed while traced
must look functions up at call time (``bt.decode(...)``), not hold its own
references taken before the tracer was installed.

Spans stay in memory; ``layer_metrics`` aggregates them and ``dump`` writes
them out once the run is over.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable, Iterator

# observer(args, kwargs, result) -> {counter name: increment}
Observer = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    op: int  # operation id, -1 for set-up


class Tracer:
    """Records one span per call of each target function.

    targets maps a span name to the (btembed submodule, function) it wraps.
    A target the package does not define is skipped and reports zero calls.
    observers map a span name to a function of the call that returns counter
    increments, for counts the return values carry.
    """

    def __init__(self, targets: dict[str, tuple[str, str]], observers: dict[str, Observer] | None = None):
        self.targets = targets
        self.observers = observers or {}
        self.spans: list[Span] = []  # a slot is None only while its call runs
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = self.observers.get(name)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent, self.op)
            if observe is not None:
                for key, inc in observe(args, kwargs, result).items():
                    self.counters[key] += inc
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block, then restore."""
        patches = []
        modules = [m for n, m in list(sys.modules.items()) if n == "btembed" or n.startswith("btembed.")]
        try:
            for name, (mod, fn_name) in self.targets.items():
                original = getattr(importlib.import_module(f"btembed.{mod}"), fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls, total_ms and self_ms per target.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for s, children in zip(self.spans, child_time):
            calls[s.name] += 1
            total[s.name] += s.end - s.start
            own[s.name] += s.end - s.start - children
        out: dict[str, tuple[float, str]] = {}
        for name in self.targets:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.total_ms"] = (total[name] * 1e3, "ms")
            out[f"{name}.self_ms"] = (own[name] * 1e3, "ms")
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as [name, start, end, parent, op] rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [astuple(s) for s in self.spans]
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": rows}, f)
