"""fibfrac benchmark: one workload per fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload curves --seed 1 --seconds 36 --trace 0

Workloads (see workloads.py and README.md): curves, verify_full, export.
The package is imported from ./src of the checkout; there is nothing to
build.

--trace 0 times whole passes untraced and reports the end-to-end metrics:
wall_s, the median wall time of a pass; setup_s, the median time to import
fibfrac and build the inputs in a fresh process; peak_rss_mb, the
process's peak resident set.  --trace 1 alternates untraced and traced
passes after one warm-up pass and reports the per-layer metrics of
layers.py, each the median over the traced passes.  Timed passes repeat
until the next one would end after --seconds, with at least MIN_PASSES of
them.

The last stdout line is the result object; the line before it records the
samples behind each median, the error rate and the environment.  The exit
code is 0 only when every operation passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
import layers  # noqa: E402
import selftest  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES = 8  # fresh processes timed for setup_s, besides this one
_THREAD_VARS = re.compile(r"(OMP|OPENBLAS|MKL|BLIS|VECLIB|NUMEXPR|GOTO)_\w*")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)  # print this process's set-up time
    return ap.parse_args(argv)


def _outdir() -> str:
    return os.path.join(ROOT, ".perfbench_out", str(os.getpid()))


def _remove_outdir() -> None:
    shutil.rmtree(_outdir(), ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(_outdir()))
    except OSError:  # another run still uses it
        pass


def _setup(args):
    t0 = time.perf_counter()
    ops = workloads.setup(args.workload, args.seed, _outdir())
    return ops, time.perf_counter() - t0


def _probe_setup(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True, cwd=ROOT)
    return float(res.stdout.strip().splitlines()[-1])


def run_pass(ops):
    """Run every operation once; returns (timed seconds, attempted, failed)."""
    busy = 0.0
    attempted = failed = 0
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception:
            busy += time.perf_counter() - t0
            traceback.print_exc()
            attempted += 1
            failed += 1
            continue
        busy += time.perf_counter() - t0
        try:
            a, f = op.check(out)
        except Exception:
            traceback.print_exc()
            a, f = 1, 1
        if f:
            print("perfbench: check failed: %s" % op.name, file=sys.stderr)
        attempted += a
        failed += f
    return busy, attempted, failed


def _traced_pass(ops):
    from fibfrac import analysis, cli, ifs, metrics, turtle, words

    tr = tracer.Tracer()
    modules = (words, turtle, analysis, ifs, metrics, cli)
    with tracer.instrument(tr, modules, layers.COUNTERS):
        wall, a, f = run_pass(ops)
    summary = tracer.summarize(tr.spans, set(layers.NAMED))
    return wall, a, f, layers.pass_metrics(summary)


def measure(ops, seconds: float, trace: bool) -> dict:
    untraced, traced, per_pass = [], [], []
    attempted = failed = 0
    if trace:
        # a process's first pass runs cold; keep it out of the comparison of
        # traced with untraced passes
        _, attempted, failed = run_pass(ops)
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(untraced):
            wall, a, f, m = _traced_pass(ops)
            traced.append(wall)
            per_pass.append(m)
        else:
            wall, a, f = run_pass(ops)
            untraced.append(wall)
        attempted += a
        failed += f
        done = len(untraced) + len(traced)
        elapsed = time.perf_counter() - start
        if done >= MIN_PASSES and elapsed + elapsed / done > seconds:
            break
    return {"untraced": untraced, "traced": traced, "per_pass": per_pass,
            "attempted": attempted, "failed": failed}


def _git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fibfrac")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "FIBFRAC_THREADS": os.environ.get("FIBFRAC_THREADS"),
        "thread_vars": {k: v for k, v in sorted(os.environ.items())
                        if _THREAD_VARS.fullmatch(k)},
        "platform": platform.platform(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "fibfrac", "__init__.py")):
        print("perfbench: no fibfrac package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe:
        try:
            print(repr(_setup(args)[1]))
        finally:
            _remove_outdir()
        return 0

    try:
        ops, own_setup = _setup(args)
        setup_samples = [own_setup]
        if args.trace:
            selftest.check_tracer()
        else:
            setup_samples += [_probe_setup(args) for _ in range(SETUP_PROBES)]
        res = measure(ops, args.seconds, bool(args.trace))
    finally:
        _remove_outdir()

    attempted, failed = res["attempted"], res["failed"]
    untraced_med = statistics.median(res["untraced"])
    if args.trace:
        metrics = {}
        for name, unit, _ in layers.metric_specs():
            if name == "bench.untraced_wall_s":
                value = untraced_med
            elif name == "bench.trace_overhead_s":
                value = statistics.median(res["traced"]) - untraced_med
            else:
                value = statistics.median(m[name] for m in res["per_pass"])
            metrics[name] = _metric(value, unit)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": _metric(untraced_med, "s"),
            "setup_s": _metric(statistics.median(setup_samples), "s"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
        }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "untraced_wall_s": res["untraced"], "traced_wall_s": res["traced"],
        "setup_s": setup_samples,
        "error_rate": failed / attempted,
        "environment": environment(),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
