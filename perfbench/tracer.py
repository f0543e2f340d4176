"""Span tracer for the benchmark's traced run.

The tracer wraps evlab's functions from outside the package: every public
function of each module, plus the few private boundaries the per-layer
metrics name, is replaced at *every* module attribute where a caller looks
it up (``ftir`` imports ``match_evanescent_slab`` and ``ttime``/``spectral``
import ``integrate`` by name, so patching the defining module alone would
miss those calls). Each call records one span: id, name, start, end,
parent span and operation id. Spans stay in memory until the run ends.

The CLI runs sweeps on a thread pool, so a span opened on a worker thread
takes as parent the innermost span open on the benchmark's own thread.
Self time is the part of a span's interval that none of its children cover;
a layer's time is the union of its spans' intervals, so calls overlapping
on two threads are not counted twice.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "stationary", "ttime", "numcore", "spectral", "ftir", "propagate", "tolman")

# Private functions that are layer boundaries in their own right.
EXTRA_TARGETS = {"propagate": ("_measure",)}


class Tracer:
    """Collects spans from wrapped evlab functions while installed."""

    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent_id, op_id)
        self.integrand_evals = 0
        self.op = 0
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn):
        spans, ids, main_stack = self.spans, self._ids, self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op))

        return traced

    def _counting_integrate(self, integrate):
        @functools.wraps(integrate)
        def counted(f, *args, **kwargs):
            def integrand(x):
                self.integrand_evals += 1
                return f(x)

            return integrate(integrand, *args, **kwargs)

        return counted

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        import evlab
        from evlab import cli, numcore

        modules = {layer: importlib.import_module(f"evlab.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                own = inspect.isfunction(obj) and obj.__module__ == module.__name__
                if own and (not attr.startswith("_") or attr in EXTRA_TARGETS.get(layer, ())):
                    target = obj
                    if obj is numcore.integrate:
                        target = self._counting_integrate(obj)
                    wrappers[obj] = self._span(f"{layer}.{attr}", target)
        for module in (evlab, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        for attr in ("write_csv", "finish"):
            self._patch(cli.OutputWriter, attr,
                        self._span(f"cli.{attr}", getattr(cli.OutputWriter, attr)))
        self._patch(argparse.ArgumentParser, "parse_args",
                    self._span("cli.parse_args", argparse.ArgumentParser.parse_args))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _union_ns(intervals) -> int:
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def _minus(lo, hi, covers):
    """Segments of [lo, hi] not covered by any interval in covers."""
    out, cursor = [], lo
    for c_lo, c_hi in sorted(covers):
        c_lo, c_hi = max(c_lo, lo), min(c_hi, hi)
        if c_hi <= cursor:
            continue
        if c_lo > cursor:
            out.append((cursor, c_lo))
        cursor = max(cursor, c_hi)
    if cursor < hi:
        out.append((cursor, hi))
    return out


class SpanIndex:
    """Per-name call counts, covered time and self time derived from spans."""

    def __init__(self, spans):
        self.count = defaultdict(int)
        self.intervals = defaultdict(list)
        self.self_segments = defaultdict(list)
        children = defaultdict(list)
        for sid, name, start, end, parent, _ in spans:
            children[parent].append((start, end))
        for sid, name, start, end, parent, _ in spans:
            self.count[name] += 1
            self.intervals[name].append((start, end))
            self.self_segments[name].extend(_minus(start, end, children.get(sid, ())))

    def calls(self, name) -> int:
        return self.count.get(name, 0)

    def seconds(self, *names) -> float:
        """Wall time covered by any span of the given names."""
        return _union_ns([iv for n in names for iv in self.intervals.get(n, ())]) * 1e-9

    def self_seconds(self, *names) -> float:
        """Wall time in which one of the given spans is open and none of its
        children is."""
        return _union_ns([s for n in names for s in self.self_segments.get(n, ())]) * 1e-9

    def layer_names(self, layer, exclude=()):
        prefix = layer + "."
        return [n for n in self.count if n.startswith(prefix) and n not in exclude]
