"""Span tracer for the traced benchmark run.

The tracer wraps every public function of the fibfrac layer modules by
replacing the module attribute.  The package's modules call each other
through module attributes (``metrics.hausdorff_distance``,
``ifsmod.attractor``), so nested calls between layers are caught without any
change to the package.

Each thread keeps its own span stack, so a span's parent is always a span of
the same thread; worker threads start their own root spans.  A span's self
time is its duration minus the durations of its direct children.  Busy time
sums self time over all threads; wall time is the length of the union of the
self intervals, so it never exceeds the elapsed time even when workers
overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str  # "<module>.<function>", module without the package prefix
    thread: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects finished spans in memory; safe to use from several threads."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._last_id = 0
        self.spans: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            self._last_id += 1
            sid = self._last_id
        sp = Span(sid, name, threading.get_ident(),
                  stack[-1].id if stack else None, self._clock())
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self._clock()
            stack.pop()
            with self._lock:
                self.spans.append(sp)


def _wrap(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as sp:
            out = fn(*args, **kwargs)
        if count is not None:
            sp.counts.update(count(args, kwargs, out))
        return out

    return traced


def public_functions(module) -> list[str]:
    """Names of the functions a module defines itself and does not hide."""
    return sorted(
        name for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    )


@contextlib.contextmanager
def instrument(tracer: Tracer, modules, counters=None):
    """Wrap the public functions of `modules` while the block runs.

    `counters` maps a span name to ``f(args, kwargs, result) -> dict`` whose
    counts are added to that span.  The original functions are restored on
    exit, also when the block raises.
    """
    counters = counters or {}
    saved = []
    try:
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for fname in public_functions(module):
                fn = getattr(module, fname)
                saved.append((module, fname, fn))
                name = "%s.%s" % (layer, fname)
                setattr(module, fname, _wrap(tracer, name, fn, counters.get(name)))
        yield tracer
    finally:
        for module, fname, fn in saved:
            setattr(module, fname, fn)


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans, named) -> dict:
    """Busy time, wall time, calls and counts per layer and per named function.

    A layer is a module.  A span of a function outside `named` is credited to
    its nearest ancestor in the same layer whose function is named (so a
    helper such as ``metrics.directed_hausdorff`` counts toward
    ``metrics.hausdorff_distance``); without one it is credited to its layer
    only.  Returns ``{key: {"self_s", "wall_s", "calls", <counts>}}`` for
    every layer and named function that ran, plus ``"*"`` whose ``wall_s``
    is the union of all span intervals.
    """
    by_id = {s.id: s for s in spans}
    child_time = defaultdict(float)
    child_iv = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
            child_iv[s.parent].append((s.start, s.end))

    def credit(s):
        cur = s
        while cur is not None and cur.layer == s.layer:
            if cur.name in named:
                return cur.name
            cur = by_id.get(cur.parent)
        return None

    busy = defaultdict(float)
    intervals = defaultdict(list)
    out = defaultdict(lambda: {"calls": 0})
    for s in spans:
        self_s = (s.end - s.start) - child_time[s.id]
        own = []
        lo = s.start
        for c_lo, c_hi in sorted(child_iv[s.id]):
            own.append((lo, c_lo))
            lo = c_hi
        own.append((lo, s.end))
        keys = [s.layer]
        fn_key = credit(s)
        if fn_key is not None:
            keys.append(fn_key)
        for key in keys:
            busy[key] += self_s
            intervals[key] += own
        if s.name in named:
            entry = out[s.name]
            entry["calls"] += 1
            for k, v in s.counts.items():
                entry[k] = entry.get(k, 0) + v
    for key in busy:
        out[key]["self_s"] = busy[key]
        out[key]["wall_s"] = _union_length(intervals[key])
    out["*"] = {"wall_s": _union_length([(s.start, s.end) for s in spans])}
    return dict(out)
