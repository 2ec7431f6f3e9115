"""scripts/bench_record.py refuses to record a failed benchmark run."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "bench_record.py")


def test_failed_run_stops_without_a_file(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    shutil.copy(os.path.join(os.path.dirname(os.path.dirname(SCRIPT)), "BENCHMARK.json"),
                tmp_path)
    monkeypatch.setattr(mod, "ROOT", str(tmp_path))
    calls = []

    def fake_run(cmd, **kwargs):
        # the first workload passes; the second run fails one check
        calls.append(cmd)
        if len(calls) == 1:
            tail = json.dumps({"ok": True}) + "\n" + json.dumps({"wall_s": 1.0}) + "\n"
            return subprocess.CompletedProcess(cmd, 0, stdout=tail, stderr="")
        return subprocess.CompletedProcess(cmd, 1, stdout="{\"partial\":",
                                           stderr="perfbench: check failed: x\n")

    monkeypatch.setattr(mod.subprocess, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--pr", "7"])
    with pytest.raises(SystemExit) as exc:
        mod.main()
    assert exc.value.code not in (0, None)
    assert len(calls) == 2
    assert not (tmp_path / "BENCH_7.json").exists()
