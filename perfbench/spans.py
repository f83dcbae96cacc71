"""Per-function spans for the traced run, recorded from outside the program.

A Tracer wraps every public module-level function of the tritnet
modules it is given and patches the wrapper into every tritnet module
namespace that bound the function, so names imported with
``from .network import softmax`` are traced too. Each call leaves one
span (function, start, end, parent) in memory; call counts, inclusive
time, self time and per-call percentiles are derived from the spans
after the traced section ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

import numpy as np


def _package_namespaces(package: str):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Tracer:
    """Context manager that traces the public functions of some modules.

    ``modules`` maps a layer name to its module; spans are named
    ``<layer>.<function>``. ``counters`` maps a span name to a function
    of the call's (args, kwargs) whose result is summed into
    ``self.counts[name]``, for work counts such as rows evaluated.
    """

    def __init__(self, modules: dict, counters: dict | None = None,
                 package: str = "tritnet"):
        self.modules = modules
        self.counters = counters or {}
        self.package = package
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.counts = {name: 0 for name in self.counters}
        self.active = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def public_functions(self) -> dict[str, object]:
        """Qualified name -> function for every function the tracer wraps."""
        found = {}
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    found[f"{layer}.{attr}"] = obj
        return found

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if counter is not None:
                self.counts[name] += counter(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent)

        return traced

    def __enter__(self):
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, fn in self.public_functions().items()}
        for ns in _package_namespaces(self.package):
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()
        return False

    @contextlib.contextmanager
    def paused(self):
        """Context in which calls run untraced, for the benchmark's checks."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def stats(self) -> dict[str, dict]:
        """Per-function calls, ms, self_ms, ms_p50 and ms_p95 of a finished section.

        Self time is a span's duration minus the durations of its
        direct child spans.
        """
        out = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                      "ms_p50": 0.0, "ms_p95": 0.0} for name in self.names}
        if not self.spans:
            return out
        fid, start, end, parent = np.array(self.spans, dtype=np.int64).T
        dur = (end - start) / 1e6
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(self.spans))
        self_ms = dur - child
        for f in np.unique(fid):
            mask = fid == f
            d = dur[mask]
            out[self.names[f]] = {
                "calls": int(mask.sum()),
                "ms": float(d.sum()),
                "self_ms": float(self_ms[mask].sum()),
                "ms_p50": float(np.percentile(d, 50)),
                "ms_p95": float(np.percentile(d, 95)),
            }
        return out

    def dump(self) -> dict:
        """The spans as plain data: names plus [name id, start ns, end ns, parent]."""
        return {"names": self.names,
                "spans": [list(s) for s in self.spans]}
