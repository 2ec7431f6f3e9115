"""scripts/bench_pairs.py alternates its sides and counts the pairs a change won."""

import importlib.util
import json
import os
import subprocess

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "bench_pairs.py")


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_pairs_alternate_and_count(monkeypatch, capsys):
    mod = _load()
    calls = []
    # the change is faster in pairs 1 and 2, slower in pair 3
    wall = {("new", 1): 0.4, ("new", 2): 0.5, ("new", 3): 0.9,
            ("old", 1): 0.7, ("old", 2): 0.8, ("old", 3): 0.6}

    def fake_run(cmd, cwd, env, **kwargs):
        seed = int(cmd[cmd.index("--seed") + 1])
        calls.append((cwd, seed, cmd[cmd.index("--workload") + 1], "PYTHONPATH" in env))
        metrics = {"wall_s": {"value": wall[cwd, seed], "unit": "s"},
                   "peak_rss_mb": {"value": 100.0, "unit": "MB"}}
        tail = json.dumps({"detail": {}}) + "\n" + json.dumps({"metrics": metrics}) + "\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=tail, stderr="")

    monkeypatch.setattr(mod.subprocess, "run", fake_run)
    monkeypatch.setattr(mod, "PAIRS", 3)
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    mod.main(["old", "new", "--workload", "verify_full"])
    assert calls == [("old", 1, "verify_full", False), ("new", 1, "verify_full", False),
                     ("new", 2, "verify_full", False), ("old", 2, "verify_full", False),
                     ("old", 3, "verify_full", False), ("new", 3, "verify_full", False)]
    rows = {ln.split()[0]: ln for ln in capsys.readouterr().out.splitlines()}
    assert rows["wall_s"].startswith("wall_s       0.7 [")
    assert rows["wall_s"].endswith("2/3 pairs")
    assert rows["peak_rss_mb"].endswith("0/3 pairs")


def test_failed_run_stops(monkeypatch):
    mod = _load()

    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 1, stdout="", stderr="check failed\n")

    monkeypatch.setattr(mod.subprocess, "run", fake_run)
    with pytest.raises(SystemExit) as exc:
        mod.main(["old", "new", "--workload", "export"])
    assert exc.value.code not in (0, None)


def test_verdicts_follow_the_pairs_rule():
    mod = _load()
    parent = [1.0 + 0.01 * k for k in range(10)]  # median 1.045, IQR about 0.055
    change = {
        "gain": [v - 0.2 for v in parent],
        "regression": [v + 0.4 for v in parent],
        # a parent spread wider than the bound hides whatever lies inside it
        "unresolved": None,
        "level": [v + 0.005 for v in parent],
        # ties count for neither side: 8 wins of 10 is no gain
        "ties": [v - 0.5 for v in parent[:8]] + parent[8:],
    }
    noisy = [0.5, 1.5] * 5
    runs_p = [{name: (noisy if name == "unresolved" else parent)[k] for name in change}
              for k in range(10)]
    runs_c = [{name: (noisy[::-1] if name == "unresolved" else change[name])[k]
               for name in change} for k in range(10)]
    e2e = [{"name": name, "better": "lower", "bound": 0.25} for name in change]
    assert mod.verdicts(runs_p, runs_c, e2e + [{"name": "absent", "better": "lower",
                                                "bound": 0.25}]) == [
        "verdict gain: gain", "verdict regression: regression",
        "verdict unresolved: unresolved", "verdict level: level",
        "verdict ties: level"]
    # a metric where higher is better reads the same runs the other way round
    assert mod.verdict(parent, change["regression"], "higher", 0.25) == "gain"
    assert mod.verdict(change["regression"], parent, "higher", 0.25) == "regression"
    # a wide parent spread is resolved when every change run beats every
    # parent run, even with the medians closer than the spread
    assert mod.verdict(noisy, [0.49] * 10, "lower", 0.25) == "level"
    assert mod.verdict(noisy, [0.51] * 10, "lower", 0.25) == "unresolved"
