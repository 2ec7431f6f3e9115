"""Compare two checkouts on one benchmark workload in interleaved pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload verify_full

Each of PAIRS pairs runs BENCHMARK.json's command with `--workload W
--trace 0` and its run_seconds once in each checkout, in a fresh process
that imports that checkout's own src/, both with the pair's seed (1, 2,
...).  The first pair runs PARENT first, the next CHANGE first, and so on,
so a drift in the host's speed falls on both sides alike.  For each
end-to-end metric the script prints each side's median and quartiles and
in how many pairs CHANGE read lower than PARENT, then one verdict line per
metric, judged in the direction BENCHMARK.json calls better and against
its bound:

    gain        CHANGE is better in at least 9 of 10 pairs (ties count for
                neither side) and its median is better by more than the
                parent's interquartile range (IQR)
    regression  CHANGE's median is worse than PARENT's by more than bound
                times PARENT's median
    unresolved  PARENT's IQR is wider than that bound, and not every
                CHANGE run beats every PARENT run
    level       everything else

A run that exits non-zero (a failed operation check) stops the script with
a non-zero exit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the least number of pairs that can tell a gain from the host's drift
PAIRS = 10


def run_once(bench: dict, checkout: str, workload: str, seed: int) -> dict:
    """The end-to-end metrics of one benchmark run in `checkout`, by name."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    # run.py puts its own checkout's src/ first on sys.path; an inherited
    # PYTHONPATH would still reach its set-up probes, so it is dropped
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit("bench_pairs: %s in %s exited %d" % (" ".join(cmd), checkout, out.returncode))
    result = json.loads(out.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(parent: list, change: list) -> list:
    """One line per metric: each side's median [quartiles], and the pairs CHANGE won."""
    lines = ["%-12s %-30s %-30s %s" % ("metric", "parent median [q1, q3]",
                                         "change median [q1, q3]", "change lower")]
    for name in parent[0]:
        sides = []
        for runs in (parent, change):
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            sides.append("%.4g [%.4g, %.4g]" % (statistics.median(values), q1, q3))
        lower = sum(c[name] < p[name] for p, c in zip(parent, change))
        lines.append("%-12s %-30s %-30s %d/%d pairs"
                     % (name, sides[0], sides[1], lower, len(parent)))
    return lines


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """gain, regression, unresolved or level for one metric's paired runs."""
    # as costs, so that lower is better whichever way the metric points
    sign = 1.0 if better == "lower" else -1.0
    p = [sign * v for v in parent]
    c = [sign * v for v in change]
    q1, _, q3 = statistics.quantiles(p, n=4)
    med_p, med_c = statistics.median(p), statistics.median(c)
    allowed = bound * abs(med_p)
    wins = sum(b < a for a, b in zip(p, c))
    if 10 * wins >= 9 * len(p) and med_p - med_c > q3 - q1:
        return "gain"
    if med_c - med_p > allowed:
        return "regression"
    if q3 - q1 > allowed and max(c) >= min(p):
        return "unresolved"
    return "level"


def verdicts(parent: list, change: list, end_to_end: list) -> list:
    """One verdict line per end-to-end metric the runs report."""
    return ["verdict %s: %s" % (m["name"], verdict([r[m["name"]] for r in parent],
                                                   [r[m["name"]] for r in change],
                                                   m["better"], m["bound"]))
            for m in end_to_end if m["name"] in parent[0]]


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parent, change = [], []
    for k in range(PAIRS):
        order = ((args.parent, parent), (args.change, change))
        for checkout, runs in order if k % 2 == 0 else order[::-1]:
            runs.append(run_once(bench, checkout, args.workload, k + 1))
        print("pair %d: parent %s, change %s" % (k + 1, json.dumps(parent[-1]),
                                                  json.dumps(change[-1])), flush=True)
    print("\n".join(summarize(parent, change) + verdicts(parent, change,
                                                         bench["end_to_end"])))


if __name__ == "__main__":
    main()
