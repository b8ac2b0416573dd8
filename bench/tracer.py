"""Per-layer tracing from outside the program.

The traced run swaps module attributes for timing wrappers.  Each call of
a wrapped function while the tracer is active records one span: name,
start, end and the span it was called from.  Spans stay in memory until
the run ends; self time is then each span's duration minus the part of
it covered by its children.  Nothing is installed in an untraced run.
"""

from __future__ import annotations

import functools
import inspect
import math
import threading
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable

import numpy as np


def public_functions(module) -> list[str]:
    """Names of the functions a module exports, in sorted order."""
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    out = []
    for name in names:
        obj = getattr(module, name, None)
        # skip classes, data, and names imported from elsewhere
        if callable(obj) and not inspect.isclass(obj) and obj.__module__ == module.__name__:
            out.append(name)
    return sorted(out)


class Tracer:
    """Span recorder with per-name computed counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.active = False
        self._patched: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """fn with a span per call; count(counters, args, kwargs, result)
        adds computed counts after the call returns."""
        nid = self._name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            with self._lock:
                idx = len(self.start)
                self.name_id.append(nid)
                self.parent.append(stack[-1] if stack else -1)
                self.start.append(math.nan)
                self.end.append(math.nan)
            stack.append(idx)
            self.start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self, module, attr: str, name: str, count: Callable | None = None) -> None:
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, original, count))
        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, total seconds and self seconds."""
        s = self.spans()
        own = self_times(s["start"], s["end"], s["parent"])
        dur = s["end"] - s["start"]
        n = len(self.names)
        calls = np.bincount(s["name_id"], minlength=n)
        total = np.bincount(s["name_id"], weights=dur, minlength=n)
        selfs = np.bincount(s["name_id"], weights=own, minlength=n)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(selfs[i])}
            for i, name in enumerate(self.names)
        }


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself (children of one span may overlap when
    they ran on different threads)."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(len(start))
    order = np.lexsort((start, parent))
    order = order[parent[order] >= 0]
    cur, reach = -1, -math.inf
    starts, ends, parents = start.tolist(), end.tolist(), parent.tolist()
    for i in order.tolist():
        p = parents[i]
        if p != cur:
            cur, reach = p, starts[p]
        lo = max(starts[i], reach)
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - covered
