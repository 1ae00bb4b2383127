"""The benchmark's workloads: committed configs, config-implied work counts
and the output checks that decide whether a run failed.

Every count here is computed from the config, never counted from calls, so
that a rewrite of the march engine cannot change the numerator of
``march_steps_per_s``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent / "configs"

HOLDER_BAND = (0.20, 0.30)     # acceptance criterion 8, white noise
MIN_ORDER = 0.2                # acceptance criterion 9
MIN_R_SQUARED = 0.95


@dataclass(frozen=True)
class Workload:
    name: str
    command: str         # netsde subcommand
    default_seed: int    # the acceptance seed of the matching criterion

    @property
    def config_path(self) -> Path:
        return CONFIGS / f"{self.name}.json"

    def config(self) -> dict:
        return json.loads(self.config_path.read_text(encoding="utf-8"))


WORKLOADS = {w.name: w for w in (
    Workload("holder_white", "holder", 20250810),
    Workload("convergence_ladder", "convergence", 77),
    Workload("simulate_colored", "simulate", 20250810),
    Workload("simulate_white_fine", "simulate", 20250810),
)}


def _steps(t_end: float, dt: float) -> int:
    return int(round(t_end / dt))


def traj_steps(config: dict, trajectories: int) -> int:
    """Trajectory-steps the config implies: for a convergence ladder, every
    ladder entry marches each trajectory from 0 to ``t_end``."""
    t_end = config["solver"]["t_end"]
    experiment = config["experiment"]
    if experiment["name"] == "convergence":
        return trajectories * sum(_steps(t_end, dt) for dt in experiment["dt_ladder"])
    return trajectories * _steps(t_end, config["solver"]["dt"])


def expected_draws(config: dict, trajectories: int) -> int:
    """Noise draws the current engine makes: one per step, except that a
    convergence ladder regenerates the whole fine stream once per level."""
    experiment = config["experiment"]
    if experiment["name"] == "convergence":
        ladder = experiment["dt_ladder"]
        return trajectories * len(ladder) * _steps(config["solver"]["t_end"], min(ladder))
    return traj_steps(config, trajectories)


def _snapshot_rows(config: dict) -> int:
    solver = config["solver"]
    n_steps = _steps(solver["t_end"], solver["dt"])
    stride = max(int(solver.get("snapshot_stride", 1)), 1)
    snapshots = 1 + n_steps // stride + (0 if n_steps % stride == 0 else 1)
    nodes = config["mesh"]["interior_nodes"] + 2
    return snapshots * len(config["graph"]["edges"]) * nodes


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_outputs(config: dict, trajectories: int, out_dir: Path):
    """Hash the manifest-listed artifacts and check the workload's outputs.

    Returns ``(sha256 by artifact, artifact bytes, failure messages)``.
    """
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return {}, 0, ["manifest.json is missing"]
    listed = json.loads(manifest_path.read_text(encoding="utf-8"))["artifacts"]
    hashes, size, failures = {}, 0, []
    for name in ["manifest.json"] + listed:
        path = out_dir / name
        if not path.is_file():
            failures.append(f"listed artifact {name} is missing")
            continue
        hashes[name] = sha256(path)
        size += path.stat().st_size
    if failures:
        return hashes, size, failures

    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    command = config["experiment"]["name"]
    if command == "holder":
        low, high = HOLDER_BAND
        if not low <= summary["exponent"] <= high:
            failures.append(f"Hölder exponent {summary['exponent']} outside [{low}, {high}]")
        if not summary["r_squared"] >= MIN_R_SQUARED:
            failures.append(f"Hölder fit R² {summary['r_squared']} below {MIN_R_SQUARED}")
    elif command == "convergence":
        if not summary["order"] >= MIN_ORDER:
            failures.append(f"strong order {summary['order']} below {MIN_ORDER}")
        if not summary["r_squared"] >= MIN_R_SQUARED:
            failures.append(f"order fit R² {summary['r_squared']} below {MIN_R_SQUARED}")
    else:
        guard = config["solver"].get("blowup_guard", 1e6)
        sups = summary["sup_norms"]
        if len(sups) != trajectories:
            failures.append(f"{len(sups)} sup norms for {trajectories} trajectories")
        if not all(math.isfinite(s) and s < guard for s in sups):
            failures.append(f"a sup norm is not finite or not below the guard {guard:g}")
        csvs = sorted(n for n in listed if n.startswith("trajectory_"))
        if len(csvs) != trajectories:
            failures.append(f"{len(csvs)} trajectory CSVs for {trajectories} trajectories")
        rows = _snapshot_rows(config)
        for name in csvs:
            with (out_dir / name).open("rb") as handle:
                lines = sum(block.count(b"\n")
                            for block in iter(lambda: handle.read(1 << 20), b""))
            if lines != rows + 1:
                failures.append(f"{name} has {lines - 1} data rows, expected {rows}")
    return hashes, size, failures
