"""Span tracer for the benchmark's traced run.

Wrappers are installed from outside the program, around the public calls
into each ``svoed`` module, and record one span per call: layer name,
parent span, start and end.  Spans stay in memory and are reduced to
per-layer metrics after the study ends.

Worker threads (``--workers 2``) have no open span of their own when a
model evaluation starts; such spans are attributed to the innermost span
open on the thread that installed the tracer, which is the enclosing
``sampling.field_jacobians`` call.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        # [layer, parent index or None, start, end]
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str) -> int:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            elif self._owner_stack:
                parent = self._owner_stack[-1]
            else:
                parent = None
            index = len(self.spans)
            self.spans.append([layer, parent, time.perf_counter(), None])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        now = time.perf_counter()
        self._stack().pop()
        self.spans[index][3] = now

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0.0) + value


def _traced(tracer: Tracer, layer: str, fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer, targets, package: str = "svoed") -> None:
    """Wrap every target ``(layer, module, attribute, after)``.

    A plain function is replaced in every module of ``package`` that holds
    it, so callers that imported the name directly (``from .geometry
    import batch_scaling_reciprocal``) see the wrapper too.  A dotted
    attribute (``HeatRod1D.evaluate``) is replaced on its class.  A target
    that no longer exists is recorded in ``tracer.absent`` and skipped.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    for layer, module_name, attribute, after in targets:
        owner = sys.modules.get(module_name)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, None)
        if original is None:
            tracer.absent.append(f"{module_name}.{attribute}")
            continue
        wrapper = _traced(tracer, layer, original, after)
        if path:
            setattr(owner, name, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(tracer: Tracer) -> dict:
    """Per-layer calls, busy and self seconds, plus parent-child sums.

    Self time is a span's duration minus the union of its children's
    intervals, so overlapping worker-thread children are not subtracted
    twice.  ``nested[(parent, child)]`` holds the child layer's call count
    and busy seconds for spans whose direct parent is of layer ``parent``.
    """
    children: dict[int, list[int]] = {}
    for index, (_, parent, _, _) in enumerate(tracer.spans):
        if parent is not None:
            children.setdefault(parent, []).append(index)
    layers: dict[str, dict] = {}
    nested: dict[tuple[str, str], dict] = {}
    top_level_s = 0.0
    for index, (layer, parent, start, end) in enumerate(tracer.spans):
        duration = end - start
        kids = [(tracer.spans[k][2], tracer.spans[k][3]) for k in children.get(index, ())]
        entry = layers.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - _covered(kids, start, end)
        if parent is None:
            top_level_s += duration
        else:
            key = (tracer.spans[parent][0], layer)
            pair = nested.setdefault(key, {"calls": 0, "busy_s": 0.0})
            pair["calls"] += 1
            pair["busy_s"] += duration
    return {"layers": layers, "nested": nested, "top_level_s": top_level_s}
