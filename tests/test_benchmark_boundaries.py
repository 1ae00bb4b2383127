"""The benchmark's trace boundaries still see every step and every draw.

The traced benchmark run (``perfbench/spans.py``) wraps public netsde
callables at the names their callers look up, and checks the counts it
records against the counts a workload's config implies
(``perfbench/workloads.py``).  A refactor that moves a wrapped boundary
(a march that no longer goes through ``Stepper.step``, say) would only show
in the benchmark's own smoke test; this runs the same tracer in-process on
small golden configs.
"""

import json
import sys
from pathlib import Path

import pytest

from netsde import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "tests" / "golden" / "configs"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import spans
        import workloads
        yield spans, workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


@pytest.mark.parametrize("command, name", [
    ("holder", "holder_white"),
    ("convergence", "convergence_ladder"),
    ("simulate", "simulate_colored"),
])
def test_traced_counts_match_the_config(perfbench, tmp_path, command, name):
    spans, workloads = perfbench
    path = CONFIGS / f"{name}.json"
    config = json.loads(path.read_text(encoding="utf-8"))
    trajectories = config["experiment"]["trajectories"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = tracer.call("cli.run_command", cli.run_command,
                           [command, "--config", str(path), "--output-dir", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.violations == []
    layers = tracer.layer_metrics()
    assert layers["sde.steps"][0] == workloads.traj_steps(config, trajectories)
    assert layers["noise.draws"][0] == workloads.expected_draws(config, trajectories)
