"""Smoke test of the benchmark itself, at reduced size.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs once untraced and once traced with two trajectories.
Every metric name declared in BENCHMARK.json must be reported with its
unit, the traced run's span tree and config-implied counts must be
consistent, and tracing must not change a byte of the manifest-listed
artifacts.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 5


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--trajectories", "2"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_declared_metrics_and_tracing_keeps_bytes(workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
        assert reported == {m["name"]: m["unit"] for m in SPEC[group]}

    details = json.loads((ROOT / ".perfbench_out" / "results"
                          / f"{workload}-seed{SEED}-trace1.json").read_text(encoding="utf-8"))
    assert details["consistency"] == []
    untraced = [r for r in details["runs"] if r["mode"] == "run"]
    traced = [r for r in details["runs"] if r["mode"] == "trace"]
    assert untraced and len(traced) == 1
    assert traced[0]["sha256"] and traced[0]["sha256"] == untraced[0]["sha256"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
