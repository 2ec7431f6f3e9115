"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

check_tracer() verifies the tracer's arithmetic on synthetic nested calls
with a scripted clock, on one thread and on two overlapping threads, so the
expected numbers are exact.  Every traced benchmark run calls it first.

The negative control runs one pass of `verify_full` and of `export` with
one output damaged after it is written, and requires a failed operation in
each.  It takes about as long as those two passes (around half a minute).
"""

from __future__ import annotations

import sys
import threading
import types

import tracer


class _ScriptedClock:
    """Each thread reads its own list of timestamps, in order."""

    def __init__(self, script: dict):
        self._script = {name: iter(times) for name, times in script.items()}

    def __call__(self) -> float:
        return next(self._script[threading.current_thread().name])


def _module(name: str, **functions) -> types.ModuleType:
    mod = types.ModuleType(name)
    for fname, fn in functions.items():
        fn.__module__ = name
        setattr(mod, fname, fn)
    return mod


def _expect(got, want, what):
    if got != want:
        raise AssertionError("tracer self-test: %s is %r, expected %r"
                             % (what, got, want))


def _check_single_thread():
    # a.outer [0, 10] calls a.helper [1, 4], which calls b.leaf [2, 3], then
    # b.leaf [5, 9].  a.helper is unnamed, so its own 2 s go to a.outer.
    a = b = None

    def outer():
        a.helper()
        b.leaf()

    def helper():
        b.leaf()

    def leaf():
        pass

    a = _module("a", outer=outer, helper=helper)
    b = _module("b", leaf=leaf)
    clock = _ScriptedClock({threading.current_thread().name:
                            [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]})
    tr = tracer.Tracer(clock)
    with tracer.instrument(tr, (a, b)):
        a.outer()
    _expect(a.outer, outer, "restored a.outer")
    s = tracer.summarize(tr.spans, {"a.outer", "b.leaf"})
    _expect(s["a.outer"]["self_s"], 3.0 + 2.0, "a.outer self time")
    _expect(s["a"]["self_s"], 5.0, "layer a busy time")
    _expect(s["b.leaf"]["self_s"], 5.0, "b.leaf self time")
    _expect(s["b.leaf"]["calls"], 2, "b.leaf calls")
    _expect(s["a"]["wall_s"], 5.0, "layer a wall time")
    _expect(s["*"]["wall_s"], 10.0, "covered time")
    parents = {sp.name: sp.parent for sp in tr.spans}
    ids = {sp.name: sp.id for sp in tr.spans}
    _expect(parents["a.helper"], ids["a.outer"], "a.helper parent")


def _check_two_threads():
    # t1: outer [0, 10] with inner [1, 3]; t2: outer [2, 14] with inner
    # [4, 12].  A barrier holds both threads inside outer at the same time,
    # so a span stack shared between threads would mis-parent the inners.
    barrier = threading.Barrier(2, timeout=10)
    m = None

    def outer():
        barrier.wait()
        m.inner()
        barrier.wait()

    def inner():
        barrier.wait()

    m = _module("m", outer=outer, inner=inner)
    clock = _ScriptedClock({"t1": [0.0, 1.0, 3.0, 10.0],
                            "t2": [2.0, 4.0, 12.0, 14.0]})
    tr = tracer.Tracer(clock)
    errors = []

    def work():
        try:
            m.outer()
        except Exception as exc:  # reported below, after join
            errors.append(exc)

    with tracer.instrument(tr, (m,)):
        threads = [threading.Thread(target=work, name=n) for n in ("t1", "t2")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    if errors or any(t.is_alive() for t in threads):
        raise AssertionError("tracer self-test: threads failed: %r" % errors)
    s = tracer.summarize(tr.spans, {"m.outer", "m.inner"})
    _expect(s["m.outer"]["self_s"], 8.0 + 4.0, "busy time of m.outer")
    _expect(s["m.outer"]["wall_s"], 1.0 + 8.0 + 2.0, "wall time of m.outer")
    _expect(s["m.inner"]["self_s"], 10.0, "busy time of m.inner")
    _expect(s["m.inner"]["wall_s"], 10.0, "wall time of m.inner")
    _expect(s["m"]["self_s"], 22.0, "busy time of layer m")
    _expect(s["m"]["wall_s"], 14.0, "wall time of layer m")
    _expect(s["*"]["wall_s"], 14.0, "covered time")
    by_id = {sp.id: sp for sp in tr.spans}
    for sp in tr.spans:
        if sp.name == "m.inner":
            parent = by_id[sp.parent]
            _expect((parent.name, parent.thread), ("m.outer", sp.thread),
                    "parent of an inner span")
    _expect(len({sp.thread for sp in tr.spans}), 2, "thread count")


def check_tracer() -> None:
    """Raise AssertionError when the tracer misattributes time."""
    _check_single_thread()
    _check_two_threads()


def negative_control() -> None:
    """Damaged outputs must show up as failed operations."""
    import run
    import workloads

    sys.path.insert(0, run.SRC)
    try:
        for name in ("verify_full", "export"):
            ops = workloads.setup(name, 0, run._outdir(), corrupt=True)
            _, attempted, failed = run.run_pass(ops)
            print("negative control %s: %d of %d operations failed "
                  "(error rate %.3f)" % (name, failed, attempted, failed / attempted))
            if failed == 0:
                raise AssertionError("negative control %s: no failure seen" % name)
    finally:
        run._remove_outdir()


if __name__ == "__main__":
    check_tracer()
    print("tracer self-test passed")
    negative_control()
    print("negative control passed")
