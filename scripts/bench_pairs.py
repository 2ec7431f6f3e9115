"""Compare two checkouts on one benchmark workload in interleaved pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload verify_full

Each of PAIRS pairs runs BENCHMARK.json's command with `--workload W
--trace 0` and its run_seconds once in each checkout, in a fresh process
that imports that checkout's own src/, both with the pair's seed (1, 2,
...).  The first pair runs PARENT first, the next CHANGE first, and so on,
so a drift in the host's speed falls on both sides alike.  For each
end-to-end metric the script prints each side's median and quartiles and
in how many pairs CHANGE read lower than PARENT.  A run that exits
non-zero (a failed operation check) stops the script with a non-zero exit.
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
    print("\n".join(summarize(parent, change)))


if __name__ == "__main__":
    main()
