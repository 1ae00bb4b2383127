import json
from pathlib import Path

import numpy as np
import pytest

from netsde import cli
from netsde.cli import run_command
from netsde.config import build_model, config_hash, normalize_config, parse_config
from netsde.errors import SchemaViolation
from netsde.mesh import node_coordinates


def minimal_config(**overrides):
    cfg = {
        "graph": {"n_vertices": 2, "edges": [[1, 2]]},
        "vertex_matrix": [[-1.0, 1.0], [1.0, -1.0]],
        "drift": {"type": "allen_cahn", "betas": [1.0]},
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

    def test_build_model_round_trip(self, tmp_path):
        config = parse_config(write_config(tmp_path, minimal_config()))
        problem = build_model(config)
        assert problem.system.ndof == 4 + 2
        assert problem.config_hash == config.hash
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
        assert problem.noise.kind == "colored"
        assert problem.noise.n_modes == 3

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
        # nodal initial values that format unusually: -0.0, a subnormal and
        # integers held as floats
        cfg = minimal_config(initial=[1.0, -0.0, 5e-324, 2.0, 0.25, 3.0],
                             experiment={"name": "simulate", "trajectories": 2})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_command(["simulate", "--config", str(path), "--output-dir", str(out)]) == 0
        problem = build_model(parse_config(path))
        for traj in cli.run_trajectories(problem, range(2)):
            name = f"trajectory_{traj.trajectory_id:04d}.csv"
            reference_write_csv(tmp_path / name, ["t", "edge", "x", "value"],
                                reference_snapshot_rows(problem.system.mesh, traj))
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
        first = (out / "trajectory_0000.csv").read_text().splitlines()[1:7]
        assert [line.rsplit(",", 1)[1] for line in first] == \
            ["1.0", "-0.0", "5e-324", "2.0", "0.25", "3.0"]

    def test_manifest_records_stream_version(self, tmp_path):
        path = write_config(tmp_path, minimal_config())
        out = tmp_path / "out"
        assert run_command(["simulate", "--config", str(path), "--output-dir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["stream_version"] == 4

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

    def test_holder_requires_matching_experiment(self, tmp_path, capsys, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("model built before the experiment name was checked")

        monkeypatch.setattr(cli, "build_model", build)
        path = write_config(tmp_path, minimal_config())
        for command in ("holder", "convergence"):
            assert run_command([command, "--config", str(path),
                                "--output-dir", str(tmp_path / "o")]) == 1
            assert f"experiment.name must be '{command}'" in capsys.readouterr().err

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
