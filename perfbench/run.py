"""netsde benchmark: one workload, measured as real CLI commands.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root.  The load model is a closed loop with one
client: each command is ``netsde.cli.run_command(argv)`` on the workload's
committed config, with ``--threads 1`` and ``--seed`` passed through, in a
fresh Python process started by ``child.py`` so that its peak memory is its
own.  Commands are started until the next one would end after ``--seconds``;
the time left over goes to set-up probes, commands that stop as soon as
``build_model`` returns, so that ``setup_s`` has more samples than the run
has commands.  OpenBLAS keeps its default thread count, which the
provenance records.

Every command's outputs are checked (``workloads.check_outputs``) and its
artifacts hashed; a command fails on a nonzero exit code, a missing
artifact, a failed output check, or artifacts that differ byte for byte from
the first command of the run.  End-to-end metrics are medians over the
commands (for ``setup_s``, also the probes) that passed.  ``--trace 1`` adds one traced command after the
untraced ones and reports the per-layer metrics instead, with the
consistency checks of the span tree and the config-implied counts.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Per-command details, base
counts and provenance go to ``.perfbench_out/results/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check_outputs, expected_draws, traj_steps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
COMMAND_TIMEOUT_S = 120   # keeps a hung command inside the run's time limit

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "march_steps_per_s": "traj-steps/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "config.parse_s": "s",
    "assembly.assemble_s": "s",
    "noise.factor_s": "s",
    "noise.factor_peak_mb": "MB",
    "noise.draws": "count",
    "noise.draws_per_step": "ratio",
    "noise.draw_us": "us",
    "sde.steps": "count",
    "sde.step_us": "us",
    "sde.drift_us": "us",
    "sde.diffusion_us": "us",
    "sde.step_self_us": "us",
    "analysis.march_self_s": "s",
    "analysis.reduce_s": "s",
    "analysis.snapshot_mb": "MB",
    "cli.write_s": "s",
    "cli.artifact_mb": "MB",
    "trace.overhead_pct": "%",
}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class BenchRun:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload, seed, trajectories):
        self.workload = workload
        self.seed = seed
        self.config = workload.config()
        self.trajectories = trajectories or self.config["experiment"]["trajectories"]
        self.traj_steps = traj_steps(self.config, self.trajectories)
        self.work = OUT / "work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.records = []

    def _child(self, tag, mode, argv):
        """Run ``argv`` through child.py; return (record, output directory)."""
        out_dir = self.work / tag
        result_path = self.work / f"{tag}.json"
        command = [sys.executable, str(HERE / "child.py"), str(ROOT), str(result_path),
                   mode, "--", *argv, "--output-dir", str(out_dir)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=COMMAND_TIMEOUT_S)
            exit_code, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired as err:
            exit_code, stderr = None, f"timed out after {err.timeout} s"
        record = {"tag": tag, "mode": mode, "exit_code": exit_code,
                  "process_s": time.perf_counter() - start, "failures": []}
        if exit_code == 0 and result_path.is_file():
            record.update(json.loads(result_path.read_text(encoding="utf-8")))
        else:
            record["failures"].append(f"child exited with {exit_code}: {stderr.strip()[-2000:]}")
        return record, out_dir

    def self_check(self):
        """The config parses and ``netsde validate`` passes its mandatory checks."""
        record, out_dir = self._child("validate", "run", [
            "validate", "--config", str(self.workload.config_path)])
        report = out_dir / "report.json"
        if record.get("rc") != 0 or not report.is_file():
            return [f"netsde validate failed (rc={record.get('rc')})"] + record["failures"]
        if not json.loads(report.read_text(encoding="utf-8"))["passed"]:
            return ["netsde validate: a mandatory check failed"]
        return []

    def _argv(self):
        return [self.workload.command, "--config", str(self.workload.config_path),
                "--seed", str(self.seed), "--trajectories", str(self.trajectories),
                "--threads", "1"]

    def probe_setup(self):
        record, out_dir = self._child(f"setup{len(self.records):03d}", "setup", self._argv())
        if "rc" in record and record["setup_s"] is None:
            record["failures"].append("build_model did not return")
        shutil.rmtree(out_dir, ignore_errors=True)
        self.records.append(record)

    def run_command(self, trace):
        record, out_dir = self._child(f"run{len(self.records):03d}",
                                      "trace" if trace else "run", self._argv())
        if "rc" in record:
            if record["rc"] != 0:
                record["failures"].append(f"netsde exited with code {record['rc']}")
            hashes, size, failures = check_outputs(self.config, self.trajectories, out_dir)
            record.update(sha256=hashes, artifact_bytes=size)
            record["failures"] += failures
            reference = next((r["sha256"] for r in self.records if "sha256" in r), hashes)
            if hashes != reference:
                record["failures"].append("artifacts differ from the first command of the run")
            if record["setup_s"] is not None and record["wall_s"] > record["setup_s"]:
                record["march_steps_per_s"] = (
                    self.traj_steps / (record["wall_s"] - record["setup_s"]))
            else:
                record["failures"].append("build_model did not return inside the command")
        shutil.rmtree(out_dir, ignore_errors=True)
        self.records.append(record)
        return record

    def loop(self, seconds, reserve=False):
        """Closed loop: start commands until the next would end after ``seconds``.

        With ``reserve`` one more command's time is left over for the traced
        command that follows; without it, set-up probes fill the time left.
        """
        start = time.perf_counter()
        left = lambda: seconds - (time.perf_counter() - start)
        while True:
            self.run_command(trace=False)
            command_s = statistics.median(r["process_s"] for r in self.records)
            if left() < command_s * (2 if reserve else 1):
                break
        if reserve:
            return
        # a probe costs a command minus its march: start-up plus set-up
        wall_s, setup_s = _median(self.records, "wall_s"), _median(self.records, "setup_s")
        probe_s = command_s - (wall_s - setup_s) if wall_s and setup_s else command_s
        while left() >= probe_s:
            self.probe_setup()
            probe_s = _median([r for r in self.records if r["mode"] == "setup"], "process_s")


def _median(records, key):
    values = [r[key] for r in records if r.get(key) is not None]
    return statistics.median(values) if values else None


def per_layer_metrics(bench, traced, untraced_wall):
    """Per-layer metrics ``name -> (value, base count)`` and consistency failures."""
    layers = {name: tuple(v) for name, v in traced["layers"].items()}
    draws, steps = layers["noise.draws"][0], layers["sde.steps"][0]
    layers["noise.draws_per_step"] = (draws / bench.traj_steps, bench.traj_steps)
    layers["cli.artifact_mb"] = (traced.get("artifact_bytes", 0) / 2 ** 20,
                                 len(traced.get("sha256", {})))
    layers["trace.overhead_pct"] = (
        100.0 * (traced["wall_s"] - untraced_wall) / untraced_wall, 1)
    problems = list(traced["violations"])
    if steps != bench.traj_steps:
        problems.append(f"sde.steps is {steps}, the config implies {bench.traj_steps}")
    want = expected_draws(bench.config, bench.trajectories)
    if draws != want:
        problems.append(f"noise.draws is {draws}, the config implies {want}")
    return layers, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="netsde --seed (default: the workload's acceptance seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time to spend starting measured commands")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trajectories", type=int, default=None,
                        help="reduced size for smoke tests (default: the config's)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "netsde" / "__init__.py").is_file():
        print(f"error: no netsde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    bench = BenchRun(workload, seed, args.trajectories)
    # SystemExit makes subprocess.run kill and reap the running command
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        problems = bench.self_check()
        if args.trace:
            bench.loop(args.seconds, reserve=True)
            traced = bench.run_command(trace=True)
        else:
            bench.loop(args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    records = bench.records
    failed = sum(1 for r in records if r["failures"])
    commands = [r for r in records if r["mode"] == "run"]
    passed = [r for r in commands if not r["failures"]] or [r for r in commands if "rc" in r]
    probes = [r for r in records if r["mode"] == "setup" and not r["failures"]]
    for r in records:
        status = "ok" if not r["failures"] else "FAILED: " + "; ".join(r["failures"])
        timing = " ".join(f"{k}={r[k]:.4f}" for k in END_TO_END if r.get(k) is not None)
        print(f"{r['tag']} ({r['mode']}): {timing} {status}")
    if not passed:
        print("error: no command produced timings", file=sys.stderr)
        return 1

    e2e = {name: _median(passed, name) for name in END_TO_END}
    e2e["setup_s"] = _median(passed + probes, "setup_s")
    details = {
        "workload": workload.name, "seed": seed, "trajectories": bench.trajectories,
        "config_implied_traj_steps": bench.traj_steps,
        "samples": {"commands": len(passed), "setup_s": len(passed) + len(probes)},
        "attempted": len(records), "failed": failed,
        "failed_ratio": failed / len(records), "self_check": list(problems),
        "provenance": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                       "git_commit": _git_commit(), "seed": seed,
                       **passed[0]["provenance"]},
        "end_to_end": e2e, "runs": records,
    }
    if args.trace:
        if "layers" in traced:
            layers, consistency = per_layer_metrics(bench, traced, e2e["wall_s"])
        else:
            layers, consistency = {}, ["the traced command produced no spans"]
        problems += consistency
        details.update(per_layer={k: {"value": v, "count": n} for k, (v, n) in layers.items()},
                       consistency=consistency)
        for name in PER_LAYER:
            if name in layers:
                print(f"  {name:24s} {layers[name][0]:14.6g} {PER_LAYER[name]:6s} "
                      f"(base count {layers[name][1]})")
        metrics = {name: {"value": layers[name][0], "unit": unit}
                   for name, unit in PER_LAYER.items() if name in layers}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()
                   if e2e[name] is not None}
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"{workload.name} seed={seed}: {len(passed)} commands and {len(probes)} set-up "
          f"probes timed, attempted={len(records)} "
          f"failed={failed} failed_ratio={failed / len(records):g}")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    correct = failed == 0 and not problems and all(
        math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
