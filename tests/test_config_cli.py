import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netsde
from netsde import cli
from netsde.cli import run_command
from netsde.config import build_model, config_hash, normalize_config, parse_config
from netsde.errors import ConfigurationError, SchemaViolation
from netsde.mesh import node_coordinates
from netsde.noise import SineFactor

GOLDEN_CONFIGS = Path(__file__).resolve().parent / "golden" / "configs"


def minimal_config(**overrides):
    cfg = {
        "graph": {"n_vertices": 2, "edges": [[1, 2]]},
        "vertex_matrix": [[-1.0, 1.0], [1.0, -1.0]],
        "drift": {"type": "allen_cahn", "betas": 1.0},
        "solver": {"dt": 1e-3, "t_end": 0.01},
        "mesh": {"interior_nodes": 4},
        "seed": 7,
    }
    cfg.update(overrides)
    return cfg


def reference_fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def reference_write_csv(path, header, rows):
    """The per-value CSV writer the snapshot output must match byte for byte."""
    lines = [",".join(header)]
    lines.extend(",".join(reference_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_snapshot_rows(mesh, trajectory):
    xs = node_coordinates(mesh)
    for t, state in zip(trajectory.times, trajectory.states):
        for j in range(mesh.n_edges):
            for x, v in zip(xs, state[mesh.edge_dofs[j]]):
                yield (t, j + 1, x, v)


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        config = parse_config(write_config(tmp_path, minimal_config()))
        assert config.data["noise"] == {"kind": "white", "lumped": False}
        assert config.data["experiment"]["name"] == "simulate"
        assert config.data["fields"]["conductance"] == 1.0
        assert config.seed == 7

    def test_hash_stable_across_reserialization(self, tmp_path):
        cfg = minimal_config()
        a = parse_config(write_config(tmp_path, cfg, "a.json"))
        # same content, different key order and whitespace
        shuffled = json.dumps(dict(reversed(list(cfg.items()))), indent=4)
        b_path = tmp_path / "b.json"
        b_path.write_text(shuffled)
        b = parse_config(b_path)
        assert a.hash == b.hash
        assert a.hash == config_hash(a.data)

    def test_unknown_key_rejected_with_path(self, tmp_path):
        cfg = minimal_config()
        cfg["drift"] = {"type": "allen_cahn", "beta_s": [1.0]}
        with pytest.raises(SchemaViolation) as err:
            parse_config(write_config(tmp_path, cfg))
        assert any("drift.beta_s" in path for path, _ in err.value.errors)

    def test_bad_expression_reported(self, tmp_path):
        cfg = minimal_config(diffusion={"expression": "u^^3"})
        with pytest.raises(SchemaViolation) as err:
            parse_config(write_config(tmp_path, cfg))
        assert any("diffusion.expression" in path for path, _ in err.value.errors)
        assert any("position" in msg for _, msg in err.value.errors)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_config(tmp_path / "nope.json")

    def test_schema_error_paths_accumulate(self):
        with pytest.raises(SchemaViolation) as err:
            normalize_config({
                "graph": {"n_vertices": 0, "edges": []},
                "vertex_matrix": [[1.0]],
                "solver": {"dt": -1.0},
            })
        paths = {path for path, _ in err.value.errors}
        assert "graph.n_vertices" in paths
        assert "graph.edges" in paths
        assert "solver.dt" in paths

    def test_seed_override(self, tmp_path):
        config = parse_config(write_config(tmp_path, minimal_config()))
        assert config.with_overrides(seed=42).seed == 42

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 1])
    def test_seed_outside_64_bits_rejected(self, tmp_path, seed):
        # the streams key on the low 64 bits: 2**64 + 1 would replay seed 1
        with pytest.raises(SchemaViolation) as err:
            parse_config(write_config(tmp_path, minimal_config(seed=seed)))
        assert err.value.errors == [("seed", f"must be in [0, 2**64), got {seed}")]
        config = parse_config(write_config(tmp_path, minimal_config()))
        with pytest.raises(SchemaViolation, match=r"seed: must be in \[0, 2\*\*64\)"):
            config.with_overrides(seed=seed)

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_seed_range_ends_accepted(self, tmp_path, seed):
        assert parse_config(write_config(tmp_path, minimal_config(seed=seed))).seed == seed

    @pytest.mark.parametrize("text, key", [
        ('{"seed": 20250810, "seed": 999}', "seed"),
        ('{"solver": {"dt": 0.001, "t_end": 0.01, "dt": 0.002}}', "dt"),
    ], ids=["top level", "nested"])
    def test_duplicate_keys_rejected(self, tmp_path, text, key):
        cfg = minimal_config()
        del cfg["seed"], cfg["solver"]
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg)[:-1] + ", " + text[1:])
        with pytest.raises(ConfigurationError, match=f"duplicate key '{key}'"):
            parse_config(path)

    def test_trajectory_override_needs_a_trajectory_count(self):
        config = parse_config(Path(__file__).parent / "golden" / "configs" / "validate.json")
        with pytest.raises(ConfigurationError, match="'validate' experiment has no trajectory"):
            config.with_overrides(trajectories=3)

    def test_build_model_round_trip(self, tmp_path):
        config = parse_config(write_config(tmp_path, minimal_config()))
        problem = build_model(config)
        assert problem.system.ndof == 4 + 2
        assert problem.noise.seed == 7
        # Allen-Cahn with beta = 1: -u^3 + beta^2 u on the single edge
        assert (tuple(tuple(fn.constant for fn in row) for row in problem.drift.coefficients)
                == ((0.0, 1.0, 0.0, 1.0),))

    def test_polynomial_drift_config(self, tmp_path):
        cfg = minimal_config(drift={
            "type": "polynomial", "degree": 1,
            "coefficients": [0.0, "1 + 0*x", 0.0, 1.0],
            "lower_bound": 0.5, "upper_bound": 4.0,
        })
        problem = build_model(parse_config(write_config(tmp_path, cfg)))
        assert problem.drift.degree == 1

    def test_colored_noise_config(self, tmp_path):
        cfg = minimal_config(noise={"kind": "colored", "decay": 2.0, "modes": 3})
        problem = build_model(parse_config(write_config(tmp_path, cfg)))
        # one edge, three modes
        assert isinstance(problem.noise.factor, SineFactor)
        assert problem.noise.dim == 3

    def test_colored_decay_bound(self, tmp_path):
        cfg = minimal_config(noise={"kind": "colored", "decay": 0.4})
        with pytest.raises(SchemaViolation):
            parse_config(write_config(tmp_path, cfg))


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config())
        out = tmp_path / "out"
        assert run_command(["validate", "--config", str(path),
                            "--output-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "validate"
        assert manifest["seed"] == 7
        # validate writes no simulation artifacts
        assert not list(out.glob("trajectory_*.csv"))

    def test_validate_failure_names_check(self, tmp_path, capsys):
        cfg = minimal_config(vertex_matrix=[[1.0, 0.0], [0.0, -1.0]])
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        code = run_command(["validate", "--config", str(path), "--output-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "negative_semidefinite" in captured.err
        report = json.loads((out / "report.json").read_text())
        assert not report["passed"]

    @pytest.mark.parametrize("overrides, report, check", [
        ({"drift": {"type": "polynomial", "degree": 1, "coefficients": [0.0, 1.0, 0.0, "x/x"]}},
         "drift", "leading_lower_bound"),
        ({"drift": {"type": "polynomial", "degree": 1, "coefficients": [0.0, 1.0, 0.0, "x/x"]}},
         "drift", "leading_upper_bound"),
        ({"drift": {"type": "polynomial", "degree": 1,
                    "coefficients": [0.0, "1 + 0*(1/(1-x))", 0.0, 1.0]}},
         "drift", "coefficient_magnitude"),
        ({"drift": {"type": "polynomial", "degree": 1, "coefficients": [0.0, "1/x", 0.0, 1.0]}},
         "drift", "vertex_compatibility"),
        # u/u is 1 except at u = 0, where it is NaN
        ({"diffusion": {"expression": "u/u", "linear_growth": 2}}, "diffusion", "linear_growth"),
        ({"diffusion": {"expression": "u/u", "lipschitz": {"1": 5}}},
         "diffusion", "lipschitz_radius_1"),
    ], ids=["leading_lower", "leading_upper", "magnitude", "vertex", "growth", "lipschitz"])
    def test_validate_reports_nan_sample_as_failure(self, tmp_path, capsys, overrides,
                                                    report, check):
        cfg = minimal_config(graph={"n_vertices": 4, "edges": [[1, 2], [1, 3], [1, 4]]},
                             vertex_matrix=(-np.eye(4)).tolist(), **overrides)
        out = tmp_path / "out"
        assert run_command(["validate", "--config", str(write_config(tmp_path, cfg)),
                            "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert all(line.startswith("netsde:") for line in err.splitlines())
        assert f"{report}:{check}" in err
        checks = json.loads((out / "report.json").read_text())["reports"][report]["checks"]
        measured = next(c["measured"] for c in checks if c["name"] == check)
        assert np.isnan(measured)

    def test_schema_violation_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config(bogus_key=1))
        assert run_command(["validate", "--config", str(path),
                            "--output-dir", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("radius", ["0", "-1"])
    def test_nonpositive_lipschitz_radius_exit_code(self, tmp_path, capsys, radius):
        # a radius of 0 made the scan divide 0 by 0; one of -1 passed validation
        cfg = json.loads((GOLDEN_CONFIGS / "validate.json").read_text())
        cfg["diffusion"] = {"expression": "sin(u)", "lipschitz": {radius: 1.0},
                            "linear_growth": 1.5}
        path = write_config(tmp_path, cfg)
        assert run_command(["validate", "--config", str(path),
                            "--output-dir", str(tmp_path / "o")]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("netsde: error:")]
        assert len(errors) == 1
        assert f"diffusion.lipschitz.{radius}: radius must be positive" in errors[0]

    @pytest.mark.parametrize("overrides, message", [
        ({"fields": {"conductance": "1e400"}}, "conductance on edge 1 is not finite"),
        ({"fields": {"potential": "exp(1000)"}}, "potential on edge 1 is not finite"),
        ({"initial": "1e400*x"}, "edge 1 supplies the non-finite value nan at x=0.0"),
    ], ids=["conductance", "potential", "initial"])
    def test_non_finite_coefficient_exit_code(self, tmp_path, capsys, overrides, message):
        path = write_config(tmp_path, minimal_config(**overrides))
        assert run_command(["simulate", "--config", str(path),
                            "--output-dir", str(tmp_path / "o")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert all(line.startswith("netsde:") for line in lines)
        errors = [line for line in lines if line.startswith("netsde: error:")]
        assert len(errors) == 1 and message in errors[0]

    @pytest.mark.parametrize("potential, message", [
        ("10^400", "overflows"), ("1/0", "divides by zero"), ("0^-1", "divides by zero"),
        ("(-8)^0.5", "is complex"),
    ])
    def test_constant_without_a_real_value_exit_code(self, tmp_path, potential, message):
        cfg = json.loads((GOLDEN_CONFIGS / "validate.json").read_text(encoding="utf-8"))
        cfg["fields"]["potential"] = potential
        path = write_config(tmp_path, cfg)
        src = Path(netsde.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
        result = subprocess.run([sys.executable, "-m", "netsde.cli", "validate", "--config",
                                 str(path), "--output-dir", str(tmp_path / "o")], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        lines = result.stderr.splitlines()
        assert all(line.startswith("netsde:") for line in lines)
        assert f"netsde: error: expression {potential!r} {message}" in lines

    @pytest.mark.parametrize("part, text", [
        ("diffusion", "1/t"), ("diffusion", "t/t"), ("diffusion", "t^-1"),
        ("diffusion", "(t-1)^0.5"), ("drift", "1/t"),
    ])
    def test_coefficient_without_a_value_at_a_marched_time_exit_code(self, tmp_path, part,
                                                                      text):
        # each has no finite real value at t = 0, the first marched time
        cfg = json.loads((GOLDEN_CONFIGS / "simulate_colored.json").read_text(encoding="utf-8"))
        if part == "diffusion":
            cfg["diffusion"]["expression"] = text
        else:
            cfg["drift"] = {"type": "polynomial", "degree": 1, "coefficients": [0, text, 0, 1]}
        path = write_config(tmp_path, cfg)
        src = Path(netsde.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
        result = subprocess.run([sys.executable, "-m", "netsde.cli", "simulate", "--config",
                                 str(path), "--output-dir", str(tmp_path / "o")], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        lines = result.stderr.splitlines()
        assert all(line.startswith("netsde:") for line in lines)
        assert "netsde: error: trajectory 0 produced non-finite values at step 1" in lines

    def test_out_of_range_seed_flag_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config())
        assert run_command(["simulate", "--config", str(path), "--seed", str(2 ** 64 + 1),
                            "--output-dir", str(tmp_path / "o")]) == 1
        assert "seed: must be in [0, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_module_entry_point_prints_version(self):
        src = Path(netsde.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
        result = subprocess.run([sys.executable, "-m", "netsde.cli", "--version"], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0
        assert result.stdout == f"netsde {netsde.__version__}\n"

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert run_command(["simulate", "--config", str(tmp_path / "none.json"),
                            "--output-dir", str(tmp_path / "o")]) == 2

    def test_simulate_reproducible_bytes(self, tmp_path):
        path = write_config(tmp_path, minimal_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_command(["simulate", "--config", str(path), "--seed", "7",
                                "--output-dir", str(out), "--threads", "1"]) == 0
        for name in ("trajectory_0000.csv", "manifest.json", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_simulate_seed_changes_output(self, tmp_path):
        path = write_config(tmp_path, minimal_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_command(["simulate", "--config", str(path), "--seed", "1",
                     "--output-dir", str(out_a)])
        run_command(["simulate", "--config", str(path), "--seed", "2",
                     "--output-dir", str(out_b)])
        assert (out_a / "trajectory_0000.csv").read_text() \
            != (out_b / "trajectory_0000.csv").read_text()

    def test_snapshot_csv_schema(self, tmp_path):
        path = write_config(tmp_path, minimal_config())
        out = tmp_path / "out"
        run_command(["simulate", "--config", str(path), "--output-dir", str(out)])
        lines = (out / "trajectory_0000.csv").read_text().splitlines()
        assert lines[0] == "t,edge,x,value"
        n_snap = 11  # stride 1, 10 steps + initial state
        assert len(lines) == 1 + n_snap * 1 * 6

    def test_snapshot_csv_bytes_match_reference_writer(self, tmp_path):
        experiment = {"name": "simulate", "trajectories": 2}
        cases = {
            # nodal initial values that format unusually: -0.0, a subnormal and
            # integers held as floats
            "odd": minimal_config(initial=[1.0, -0.0, 5e-324, 2.0, 0.25, 3.0],
                                  experiment=experiment),
            # 201 snapshots of 42 nodes: two whole write pieces and a partial one
            "long": minimal_config(mesh={"interior_nodes": 40},
                                   solver={"dt": 1e-3, "t_end": 0.2}, experiment=experiment),
        }
        for case, cfg in cases.items():
            path = write_config(tmp_path, cfg, f"{case}.json")
            out = tmp_path / case
            assert run_command(["simulate", "--config", str(path), "--output-dir", str(out)]) == 0
            problem = build_model(parse_config(path))
            for traj in cli.run_trajectories(problem, range(2)):
                name = f"trajectory_{traj.trajectory_id:04d}.csv"
                reference = tmp_path / f"{case}_{name}"
                reference_write_csv(reference, ["t", "edge", "x", "value"],
                                    reference_snapshot_rows(problem.system.mesh, traj))
                assert (out / name).read_bytes() == reference.read_bytes(), (case, name)
        first = (tmp_path / "odd" / "trajectory_0000.csv").read_text().splitlines()[1:7]
        assert [line.rsplit(",", 1)[1] for line in first] == \
            ["1.0", "-0.0", "5e-324", "2.0", "0.25", "3.0"]
        n_long = len((tmp_path / "long" / "trajectory_0000.csv").read_text().splitlines()) - 1
        assert n_long == 201 * 42 and n_long > 2 * cli._WRITE_LINES

    def test_manifest_records_stream_version(self, tmp_path):
        path = write_config(tmp_path, minimal_config())
        out = tmp_path / "out"
        assert run_command(["simulate", "--config", str(path), "--output-dir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["stream_version"] == 6

    def test_spectrum_csv(self, tmp_path):
        cfg = minimal_config(experiment={"name": "spectrum", "count": 3})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_command(["spectrum", "--config", str(path),
                            "--output-dir", str(out), "--dump-matrices"]) == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "k,lambda_k"
        assert len(lines) == 4
        lam1 = float(lines[1].split(",")[1])
        assert lam1 <= 1e-10
        assert (out / "mass.mtx").exists()

    def test_spectrum_names_reports_skipped_above_dense_limit(self, tmp_path, capsys):
        cfg = minimal_config(
            graph={"n_vertices": 4, "edges": [[1, 2], [1, 3], [1, 4]]},
            vertex_matrix=(-np.eye(4)).tolist(),
            mesh={"interior_nodes": 140},
            experiment={"name": "spectrum", "count": 3},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_command(["spectrum", "--config", str(path), "--output-dir", str(out)]) == 0
        infos = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("netsde: info:")]
        assert len(infos) == 1
        assert all(word in infos[0] for word in ("contraction_einf", "positivity", "424", "400"))
        assert sorted(json.loads((out / "properties.json").read_text())) == ["contraction_e2"]

    def test_holder_command(self, tmp_path):
        cfg = minimal_config(
            solver={"dt": 1e-3, "t_end": 0.2},
            experiment={"name": "holder", "lags": [4e-3, 8e-3, 16e-3, 32e-3],
                        "trajectories": 6, "norm": "E2", "burn_fraction": 0.25},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_command(["holder", "--config", str(path),
                            "--output-dir", str(out), "--threads", "1"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 < summary["exponent"] < 1.0
        assert (out / "holder.csv").exists()

    def test_threads_flag_is_ignored_with_a_warning(self, tmp_path, capsys):
        cfg = minimal_config(
            solver={"dt": 1e-3, "t_end": 0.1},
            experiment={"name": "holder", "lags": [4e-3, 8e-3, 16e-3, 32e-3],
                        "trajectories": 3, "norm": "E2", "burn_fraction": 0.25},
        )
        path = write_config(tmp_path, cfg)
        outs = {}
        for threads in ("1", "3"):
            outs[threads] = tmp_path / f"threads{threads}"
            assert run_command(["holder", "--config", str(path), "--output-dir",
                                str(outs[threads]), "--threads", threads]) == 0
            warnings = [line for line in capsys.readouterr().err.splitlines()
                        if line.startswith("netsde: warning:")]
            assert len(warnings) == 1 and "--threads" in warnings[0]
        manifest = json.loads((outs["1"] / "manifest.json").read_text())
        for name in ["manifest.json"] + manifest["artifacts"]:
            assert (outs["1"] / name).read_bytes() == (outs["3"] / name).read_bytes()

    def test_convergence_command(self, tmp_path):
        cfg = minimal_config(
            solver={"dt": 1e-3, "t_end": 0.064},
            experiment={"name": "convergence",
                        "dt_ladder": [0.064 / 256, 0.064 / 16, 0.064 / 8, 0.064 / 4],
                        "trajectories": 4, "norm": "E2"},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_command(["convergence", "--config", str(path),
                            "--output-dir", str(out), "--threads", "1"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "order" in summary
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "dt,error,fitted"
        assert len(lines) == 4

    def test_convergence_without_any_error_exits_1(self, tmp_path, capsys):
        # no noise and a zero start: every level's error is 0, and a log-log
        # fit of zeros has no order (it used to write "order": NaN)
        cfg = minimal_config(
            solver={"dt": 1e-3, "t_end": 0.064}, diffusion={"expression": "0"}, initial=0,
            experiment={"name": "convergence",
                        "dt_ladder": [0.064 / 256, 0.064 / 16, 0.064 / 8, 0.064 / 4],
                        "trajectories": 2, "norm": "E2"},
        )
        out = tmp_path / "out"
        assert run_command(["convergence", "--config", str(write_config(tmp_path, cfg)),
                            "--output-dir", str(out)]) == 1
        assert ("netsde: error: the mean at dt 0.004 is 0.0; a log-log fit needs positive means"
                in capsys.readouterr().err.splitlines())
        assert not (out / "summary.json").exists()

    def test_holder_requires_matching_experiment(self, tmp_path, capsys, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("model built before the experiment name was checked")

        monkeypatch.setattr(cli, "build_model", build)
        path = write_config(tmp_path, minimal_config())
        for command in ("holder", "convergence"):
            assert run_command([command, "--config", str(path),
                                "--output-dir", str(tmp_path / "o")]) == 1
            assert f"experiment.name must be '{command}'" in capsys.readouterr().err

    def test_trajectory_count_overrides_own_experiment(self, tmp_path):
        path = write_config(tmp_path, minimal_config(experiment={"name": "simulate"}))
        out = tmp_path / "o"
        assert run_command(["simulate", "--config", str(path), "--output-dir", str(out),
                            "--trajectories", "3"]) == 0
        assert json.loads((out / "summary.json").read_text())["trajectories"] == 3
        assert sorted(p.name for p in out.glob("trajectory_*.csv")) == [
            f"trajectory_000{i}.csv" for i in range(3)]

    @pytest.mark.parametrize("command, experiment", [
        ("simulate", "holder"), ("validate", "validate"), ("spectrum", "spectrum"),
        ("validate", "simulate"),
    ])
    def test_unused_trajectory_count_rejected(self, tmp_path, capsys, command, experiment):
        path = write_config(tmp_path, minimal_config(experiment={"name": experiment}))
        out = tmp_path / "o"
        assert run_command([command, "--config", str(path), "--output-dir", str(out),
                            "--trajectories", "3"]) == 1
        assert "netsde: error: --trajectories is not used" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("amplitudes", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
    def test_colored_amplitude_count_must_match_edges(self, tmp_path, capsys, amplitudes):
        cfg = minimal_config(
            graph={"n_vertices": 4, "edges": [[1, 2], [1, 3], [1, 4]]},
            vertex_matrix=(-np.eye(4)).tolist(),
            drift={"type": "none"},
            noise={"kind": "colored", "decay": 2.0, "amplitudes": amplitudes},
        )
        path = write_config(tmp_path, cfg)
        assert run_command(["simulate", "--config", str(path),
                            "--output-dir", str(tmp_path / "o")]) == 1
        assert "netsde: error: need one noise amplitude per edge (3)" in capsys.readouterr().err

    def test_missing_output_dir(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config())
        assert run_command(["validate", "--config", str(path)]) == 1
