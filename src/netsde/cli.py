"""Command line interface: run orchestration and artifact emission.

Subcommands: validate, spectrum, simulate, holder, convergence.  Every run
writes ``manifest.json`` (config hash, seed, tool version, artifact list;
no timestamps, so identical inputs reproduce outputs bitwise) into the
output directory.  Exit codes: 0 success, 1 validation/configuration
failure, 2 runtime error.  Diagnostics go to standard error as
``netsde: <level>: <message>`` lines.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    estimate_holder_exponent,
    estimate_strong_order,
    run_trajectories,
)
from .assembly import dump_matrices
from .config import (
    EXPERIMENT_DEFAULTS,
    RunConfig,
    build_coefficients,
    build_model,
    parse_config,
)
from .errors import ConfigurationError, NetsdeError
from .fields import validate_diffusion, validate_drift
from .graph import validate_vertex_matrix
from .mesh import Mesh, node_coordinates
from .noise import STREAM_VERSION
from .semigroup import EXPM_LIMIT, check_contraction, check_positivity, generalized_eigs


def _log(level, message):
    print(f"netsde: {level}: {message}", file=sys.stderr)


def _fmt(value) -> str:
    # shortest round-trip decimals keep CSV output bitwise reproducible
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# lines per write, so that no file is held whole: 4096 of simulate's
# snapshot lines are about 230 KB of text
_WRITE_LINES = 4096


def _write_lines(path: Path, header, lines):
    """Write the header and then ``lines``, each ended by a newline, in
    pieces of ``_WRITE_LINES`` lines."""
    lines = iter(lines)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        while piece := list(islice(lines, _WRITE_LINES)):
            handle.write("\n".join(piece) + "\n")


def _write_csv(path: Path, header, rows):
    _write_lines(path, header, (",".join(_fmt(v) for v in row) for row in rows))


def _write_json(path: Path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_manifest(out_dir: Path, command: str, config: RunConfig, artifacts, **extra):
    payload = {
        "tool": "netsde",
        "version": __version__,
        "command": command,
        "config_hash": config.hash,
        "seed": config.seed,
        "stream_version": STREAM_VERSION,
        "artifacts": sorted(artifacts),
    }
    payload.update(extra)
    _write_json(out_dir / "manifest.json", payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netsde",
        description="Stochastic reaction-diffusion dynamics on metric graphs.")
    parser.add_argument("--version", action="version", version=f"netsde {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("validate", "check structural assumptions and emit a report"),
        ("spectrum", "eigenvalues of the discrete generator"),
        ("simulate", "sample trajectories and write snapshots"),
        ("holder", "temporal Hölder exponent estimation"),
        ("convergence", "coupled-noise strong convergence order"),
    ):
        cmd = sub.add_parser(name, help=desc)
        cmd.add_argument("--config", required=True, help="path to the JSON run configuration")
        cmd.add_argument("--seed", type=int, default=None, help="override the configured seed")
        cmd.add_argument("--trajectories", type=int, default=None,
                         help="override the configured trajectory count")
        cmd.add_argument("--output-dir", default=None,
                         help="artifact directory (overrides config output_dir)")
        cmd.add_argument("--threads", type=int, default=None,
                         help="accepted and ignored: trajectories run serially in id order")
        if name in ("validate", "spectrum"):
            cmd.add_argument("--dump-matrices", action="store_true",
                             help="write assembled matrices in Matrix Market format")
    return parser


def _resolve_output_dir(args, config: RunConfig) -> Path:
    target = args.output_dir or config.data.get("output_dir")
    if target is None:
        raise ConfigurationError(
            "no output directory: pass --output-dir or set output_dir in the config")
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _settings(config: RunConfig, name: str) -> dict:
    """The config's experiment settings if it runs ``name``, else the defaults."""
    return config.experiment if config.experiment["name"] == name else EXPERIMENT_DEFAULTS[name]


def _cmd_validate(args, config: RunConfig, out_dir: Path) -> int:
    # assembly-free construction so an invalid vertex matrix still yields a report
    built = build_coefficients(config)
    params = _settings(config, "validate")
    horizon = config.data["solver"]["t_end"]
    reports = {
        "vertex_matrix_basic": validate_vertex_matrix(
            built.vertex_matrix, "basic", built.graph.n_vertices).as_dict(),
        "vertex_matrix_strict": validate_vertex_matrix(
            built.vertex_matrix, "strict", built.graph.n_vertices).as_dict(),
        "diffusion": validate_diffusion(built.diffusion, horizon=horizon).as_dict(),
    }
    if built.drift is not None:
        reports["drift"] = validate_drift(
            built.drift, built.graph, horizon=horizon,
            n_time=params["lattice_time"], n_space=params["lattice_space"]).as_dict()
    # the strict profile is informational: Assumption-level validity is basic
    mandatory = [k for k in reports if k != "vertex_matrix_strict"]
    passed = all(reports[k]["passed"] for k in mandatory)
    payload = {"passed": passed, "reports": reports, "mandatory": sorted(mandatory)}
    _write_json(out_dir / "report.json", payload)
    artifacts = ["report.json"]
    if getattr(args, "dump_matrices", False) and reports["vertex_matrix_basic"]["passed"]:
        artifacts += [Path(p).name for p in dump_matrices(build_model(config).system, out_dir)]
    _write_manifest(out_dir, "validate", config, artifacts)
    if not passed:
        failed = [f"{name}:{check['name']}" for name, report in reports.items()
                  if name in mandatory
                  for check in report["checks"]
                  if check["mandatory"] and not check["passed"]]
        _log("error", f"validation failed: {', '.join(failed)}")
        return 1
    _log("info", "all mandatory checks passed")
    return 0


def _cmd_spectrum(args, config: RunConfig, out_dir: Path) -> int:
    system = build_model(config).system
    count = min(_settings(config, "spectrum")["count"], system.ndof)
    spectral = generalized_eigs(system, count=count)
    _write_csv(out_dir / "spectrum.csv", ["k", "lambda_k"],
               [(k + 1, lam) for k, lam in enumerate(spectral.eigenvalues)])
    t_grid = [0.01, 0.1, 1.0]
    properties = {"contraction_e2": check_contraction(system, t_grid, "E2").as_dict()}
    ndof = system.ndof
    if ndof <= EXPM_LIMIT:
        properties["contraction_einf"] = check_contraction(system, t_grid, "Einf").as_dict()
        properties["positivity"] = check_positivity(system, t_grid).as_dict()
    else:
        _log("info", f"contraction_einf and positivity skipped: {ndof} dofs exceed the "
                     f"{EXPM_LIMIT}-dof limit of their dense matrix exponentials")
    _write_json(out_dir / "properties.json", properties)
    artifacts = ["spectrum.csv", "properties.json"]
    if getattr(args, "dump_matrices", False):
        artifacts += [Path(p).name for p in dump_matrices(system, out_dir)]
    _write_manifest(out_dir, "spectrum", config, artifacts)
    return 0


def _snapshot_lines(mesh: Mesh, trajectory):
    """CSV lines ``t,edge,x,value``, formatted as ``_fmt`` would, one
    (snapshot, edge) block at a time."""
    xs = [f"{x!r}," for x in node_coordinates(mesh).tolist()]
    for t, state in zip(trajectory.times.tolist(), trajectory.states):
        for j, dofs in enumerate(mesh.edge_dofs):
            prefix = f"{t!r},{j + 1},"
            yield from (prefix + x + v for x, v in zip(xs, map(repr, state[dofs].tolist())))


def _cmd_simulate(args, config: RunConfig, out_dir: Path) -> int:
    problem = build_model(config)
    n_traj = _settings(config, "simulate")["trajectories"]
    trajectories = run_trajectories(problem, range(n_traj))
    artifacts = []
    for traj in trajectories:
        name = f"trajectory_{traj.trajectory_id:04d}.csv"
        _write_lines(out_dir / name, ["t", "edge", "x", "value"],
                     _snapshot_lines(problem.system.mesh, traj))
        artifacts.append(name)
    _write_json(out_dir / "summary.json", {
        "trajectories": n_traj,
        "scheme": config.data["solver"]["scheme"],
        "sup_norms": [t.sup_norm for t in trajectories],
    })
    artifacts.append("summary.json")
    _write_manifest(out_dir, "simulate", config, artifacts,
                    scheme=config.data["solver"]["scheme"])
    return 0


def _write_estimate(out_dir: Path, config: RunConfig, command: str, estimate,
                    columns, summary_key: str):
    """Write ``<command>.csv`` (ladder, value, fitted), the summary and manifest."""
    exp = config.experiment
    fitted = np.exp(np.log(estimate.values) - estimate.residuals)
    _write_csv(out_dir / f"{command}.csv", [*columns, "fitted"],
               zip(estimate.ladder, estimate.values, fitted))
    _write_json(out_dir / "summary.json", {
        summary_key: estimate.estimate,
        "half_width": estimate.half_width,
        "r_squared": estimate.r_squared,
        "norm": exp["norm"],
        "trajectories": exp["trajectories"],
    })
    _write_manifest(out_dir, command, config, [f"{command}.csv", "summary.json"])


def _cmd_holder(args, config: RunConfig, out_dir: Path) -> int:
    if config.experiment["name"] != "holder":
        raise ConfigurationError("config experiment.name must be 'holder' for this command")
    exp = config.experiment
    estimate = estimate_holder_exponent(
        build_model(config), exp["lags"], exp["trajectories"], norm=exp["norm"],
        burn_fraction=exp["burn_fraction"])
    _write_estimate(out_dir, config, "holder", estimate, ("lag", "mean_increment"), "exponent")
    _log("info", f"estimated exponent {estimate.estimate:.4f} "
                 f"± {estimate.half_width:.4f} (R²={estimate.r_squared:.4f})")
    return 0


def _cmd_convergence(args, config: RunConfig, out_dir: Path) -> int:
    if config.experiment["name"] != "convergence":
        raise ConfigurationError("config experiment.name must be 'convergence' for this command")
    exp = config.experiment
    estimate = estimate_strong_order(
        build_model(config), exp["dt_ladder"], exp["trajectories"], norm=exp["norm"])
    _write_estimate(out_dir, config, "convergence", estimate, ("dt", "error"), "order")
    _log("info", f"observed order {estimate.estimate:.4f} (R²={estimate.r_squared:.4f})")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "spectrum": _cmd_spectrum,
    "simulate": _cmd_simulate,
    "holder": _cmd_holder,
    "convergence": _cmd_convergence,
}


_NUMPY_FP_WARNING = r"(overflow|invalid value|divide by zero|underflow) encountered in "


def run_command(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        _log("warning", "--threads is ignored; trajectories run serially in id order")
    try:
        # values are checked for finiteness where used; unlike np.errstate, a filter costs no time
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _NUMPY_FP_WARNING, RuntimeWarning)
            config = parse_config(args.config)
            experiment = config.experiment
            if args.trajectories is not None and (experiment["name"] != args.command
                                                  or "trajectories" not in experiment):
                raise ConfigurationError(f"--trajectories is not used by {args.command} "
                                         f"with a {experiment['name']!r} experiment config")
            config = config.with_overrides(seed=args.seed, trajectories=args.trajectories,
                                           output_dir=args.output_dir)
            out_dir = _resolve_output_dir(args, config)
            return _COMMANDS[args.command](args, config, out_dir)
    except ConfigurationError as err:
        _log("error", str(err))
        return 1
    except NetsdeError as err:
        _log("error", str(err))
        return 2
    except OSError as err:
        _log("error", str(err))
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
