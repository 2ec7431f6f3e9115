"""Record the benchmark's results in BENCH_<pr>.json at the repository root.

    python3 scripts/bench_record.py --pr 9 --seed 1

Runs BENCHMARK.json's command for each workload at --trace 0 (end-to-end
metrics) and --trace 1 (per-layer metrics) and keeps each run's last two
stdout lines: the detail object and the result object.  "dirty" is true
when tracked files differ from the commit "sha".  A run that exits non-zero
(perfbench/run.py does so when an operation fails its check) stops the
script with a non-zero exit before any file is written.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    runs = []
    for workload in bench["workloads"]:
        for trace in ("0", "1"):
            cmd = bench["command"] + ["--workload", workload["name"], "--seed", str(args.seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", trace]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                sys.exit("bench_record: %s exited %d; nothing recorded"
                         % (" ".join(cmd), out.returncode))
            runs.append({"command": " ".join(cmd),
                         "stdout_tail": [json.loads(s) for s in out.stdout.splitlines()[-2:]]})
    record = {"sha": _git("rev-parse", "HEAD"),
              "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")), "runs": runs}
    with open(os.path.join(ROOT, "BENCH_%d.json" % args.pr), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
