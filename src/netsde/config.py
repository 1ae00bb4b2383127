"""Run configuration: JSON schema validation, canonical hashing, and the
construction of solver-ready objects.

Configs are strict: unknown keys are rejected and every violation is
reported with its JSON path.  The normalized (defaults-filled) document is
what gets hashed, so semantically identical files produce identical hashes
and manifests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembly import DiscreteSystem, assemble_form
from .errors import SchemaViolation
from .expressions import parse_expression
from .fields import (
    AllenCahnSpec,
    DiffusionSpec,
    DriftSpec,
    EdgeFieldSet,
    allen_cahn_system,
    build_diffusion,
    build_edge_fields,
    polynomial_drift,
)
from .graph import MetricGraph, VertexMatrix, build_graph
from .mesh import Mesh, build_mesh, interpolate
from .noise import NoiseModel, colored_noise_operator, white_noise_model
from .sde import SCHEMES, Problem, SolverConfig

EXPERIMENTS = ("validate", "spectrum", "simulate", "holder", "convergence")

DEFAULTS = {
    "fields": {"conductance": 1.0, "potential": 0.0, "weights": 1.0},
    "drift": {"type": "none"},
    "diffusion": {"expression": 1.0},
    "noise": {"kind": "white"},
    "mesh": {"interior_nodes": 16},
    "solver": {"scheme": "semi_implicit_tamed", "dt": 1e-3, "t_end": 1.0,
               "snapshot_stride": 1, "blowup_guard": 1e6},
    "initial": 0.0,
    "experiment": {"name": "simulate"},
    "seed": 0,
}

EXPERIMENT_DEFAULTS = {
    "validate": {"lattice_time": 64, "lattice_space": 64},
    "spectrum": {"count": 10},
    "simulate": {"trajectories": 1},
    "holder": {"lags": [1e-3, 2e-3, 4e-3, 8e-3], "trajectories": 100,
               "norm": "E2", "burn_fraction": 0.25},
    "convergence": {"dt_ladder": [1e-4, 1e-3, 2e-3, 4e-3], "trajectories": 50,
                    "norm": "E2"},
}


class _Collector:
    def __init__(self):
        self.errors = []

    def add(self, path, message):
        self.errors.append((path, message))

    def raise_if_any(self):
        if self.errors:
            raise SchemaViolation(self.errors)


def _expect_mapping(value, path, errors):
    if not isinstance(value, dict):
        errors.add(path, f"expected an object, got {type(value).__name__}")
        return None
    return value

def _check_keys(mapping, allowed, path, errors):
    for key in mapping:
        if key not in allowed:
            errors.add(f"{path}.{key}" if path else key, "unknown key")


def _expect_number(value, path, errors, minimum=None, strict=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.add(path, f"expected a number, got {type(value).__name__}")
        return None
    value = float(value)
    if minimum is not None and (value <= minimum if strict else value < minimum):
        bound = "greater than" if strict else "at least"
        errors.add(path, f"must be {bound} {minimum}, got {value}")
        return None
    return value


def _expect_int(value, path, errors, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        errors.add(path, f"expected an integer, got {type(value).__name__}")
        return None
    if minimum is not None and value < minimum:
        errors.add(path, f"must be at least {minimum}, got {value}")
        return None
    return value


def _check_coefficient(value, path, variables, errors, allow_list=True):
    """A coefficient is a number, an expression string, nodal samples, or a
    per-edge list of those (one nesting level)."""
    if isinstance(value, str):
        try:
            parse_expression(value, variables)
        except Exception as err:
            errors.add(path, str(err))
        return
    if isinstance(value, bool):
        errors.add(path, "expected a number, expression, or list")
        return
    if isinstance(value, (int, float)):
        return
    if isinstance(value, list) and allow_list:
        for i, entry in enumerate(value):
            _check_coefficient(entry, f"{path}[{i}]", variables, errors, allow_list=False)
        return
    if isinstance(value, list):
        for i, entry in enumerate(value):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                errors.add(f"{path}[{i}]", "nodal samples must be numbers")
        return
    errors.add(path, f"expected a number, expression, or list, got {type(value).__name__}")


@dataclass(frozen=True)
class RunConfig:
    """A validated, normalized run configuration."""

    data: dict
    hash: str
    source: str = ""

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def experiment(self) -> dict:
        return self.data["experiment"]

    def with_overrides(self, seed=None, trajectories=None, output_dir=None) -> "RunConfig":
        data = json.loads(json.dumps(self.data))
        if seed is not None:
            data["seed"] = int(seed)
        if trajectories is not None and "trajectories" in data["experiment"]:
            data["experiment"]["trajectories"] = int(trajectories)
        if output_dir is not None:
            data["output_dir"] = str(output_dir)
        return normalize_config(data, source=self.source)


def config_hash(data: dict) -> str:
    # the output directory is delivery plumbing, not part of the run identity
    hashed = {k: v for k, v in data.items() if k != "output_dir"}
    canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_config(path) -> RunConfig:
    """Read, validate and normalize a JSON run configuration."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"configuration file {path} does not exist")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise SchemaViolation([("", f"not valid JSON: {err}")]) from None
    return normalize_config(raw, source=str(path))


TOP_LEVEL_KEYS = frozenset({
    "graph", "vertex_matrix", "vertex_matrix_zero_ok", "fields", "drift",
    "diffusion", "noise", "mesh", "solver", "initial", "experiment", "seed",
    "output_dir",
})


def normalize_config(raw: dict, source: str = "") -> RunConfig:
    errors = _Collector()
    if not isinstance(raw, dict):
        errors.add("", "top level must be an object")
        errors.raise_if_any()
    _check_keys(raw, TOP_LEVEL_KEYS, "", errors)

    data = {}

    graph = _expect_mapping(raw.get("graph"), "graph", errors)
    n_edges = None
    if graph is not None:
        _check_keys(graph, {"n_vertices", "edges"}, "graph", errors)
        n_vertices = _expect_int(graph.get("n_vertices"), "graph.n_vertices", errors, minimum=1)
        edges = graph.get("edges")
        if not isinstance(edges, list) or not edges:
            errors.add("graph.edges", "expected a nonempty list of vertex pairs")
        else:
            for i, pair in enumerate(edges):
                if (not isinstance(pair, list) or len(pair) != 2
                        or any(isinstance(v, bool) or not isinstance(v, int) for v in pair)):
                    errors.add(f"graph.edges[{i}]", "expected a pair of integer vertex ids")
            n_edges = len(edges)
        if n_vertices is not None and n_edges is not None:
            data["graph"] = {"n_vertices": n_vertices, "edges": [list(p) for p in edges]}

    matrix = raw.get("vertex_matrix")
    if not isinstance(matrix, list) or not matrix:
        errors.add("vertex_matrix", "expected a nonempty list of rows")
    else:
        n = len(matrix)
        for i, row in enumerate(matrix):
            if (not isinstance(row, list) or len(row) != n
                    or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in row)):
                errors.add(f"vertex_matrix[{i}]", f"expected a numeric row of length {n}")
        data["vertex_matrix"] = [[float(v) for v in row] for row in matrix
                                 if isinstance(row, list)]
    zero_ok = raw.get("vertex_matrix_zero_ok", False)
    if not isinstance(zero_ok, bool):
        errors.add("vertex_matrix_zero_ok", "expected a boolean")
        zero_ok = False
    data["vertex_matrix_zero_ok"] = zero_ok

    fields = dict(DEFAULTS["fields"])
    supplied = _expect_mapping(raw.get("fields", {}), "fields", errors)
    if supplied is not None:
        _check_keys(supplied, set(fields), "fields", errors)
        fields.update(supplied)
    _check_coefficient(fields["conductance"], "fields.conductance", ("x",), errors)
    _check_coefficient(fields["potential"], "fields.potential", ("x",), errors)
    weights = fields["weights"]
    if isinstance(weights, list):
        for i, w in enumerate(weights):
            _expect_number(w, f"fields.weights[{i}]", errors, minimum=0.0, strict=True)
    else:
        _expect_number(weights, "fields.weights", errors, minimum=0.0, strict=True)
    data["fields"] = fields

    drift = dict(DEFAULTS["drift"])
    if "drift" in raw:
        supplied = _expect_mapping(raw["drift"], "drift", errors)
        if supplied is not None:
            drift = dict(supplied)
    kind = drift.get("type")
    if kind == "none":
        _check_keys(drift, {"type"}, "drift", errors)
    elif kind == "allen_cahn":
        _check_keys(drift, {"type", "betas"}, "drift", errors)
        betas = drift.get("betas")
        if isinstance(betas, list):
            for i, b in enumerate(betas):
                _expect_number(b, f"drift.betas[{i}]", errors, minimum=0.0, strict=True)
        elif betas is None:
            errors.add("drift.betas", "required for allen_cahn drift")
        else:
            _expect_number(betas, "drift.betas", errors, minimum=0.0, strict=True)
    elif kind == "polynomial":
        _check_keys(drift, {"type", "degree", "coefficients", "lower_bound", "upper_bound"},
                    "drift", errors)
        degree = _expect_int(drift.get("degree"), "drift.degree", errors, minimum=0)
        coeffs = drift.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            errors.add("drift.coefficients", "expected a list of coefficients")
        elif degree is not None:
            expected = 2 * degree + 2
            rows = coeffs if isinstance(coeffs[0], list) else [coeffs]
            for r, row in enumerate(rows):
                prefix = f"drift.coefficients[{r}]" if isinstance(coeffs[0], list) \
                    else "drift.coefficients"
                if not isinstance(row, list) or len(row) != expected:
                    errors.add(prefix, f"expected {expected} entries (powers 0..{2*degree+1})")
                    continue
                for l, entry in enumerate(row):
                    _check_coefficient(entry, f"{prefix}[{l}]", ("t", "x"), errors,
                                       allow_list=False)
        drift.setdefault("lower_bound", 1e-6)
        drift.setdefault("upper_bound", 1e6)
        _expect_number(drift["lower_bound"], "drift.lower_bound", errors, minimum=0.0, strict=True)
        _expect_number(drift["upper_bound"], "drift.upper_bound", errors, minimum=0.0, strict=True)
    else:
        errors.add("drift.type", f"expected one of none/allen_cahn/polynomial, got {kind!r}")
    data["drift"] = drift

    diffusion = dict(DEFAULTS["diffusion"])
    supplied = _expect_mapping(raw.get("diffusion", {}), "diffusion", errors)
    if supplied is not None:
        _check_keys(supplied, {"expression", "lipschitz", "linear_growth"}, "diffusion", errors)
        diffusion.update(supplied)
    _check_coefficient(diffusion["expression"], "diffusion.expression", ("t", "x", "u"), errors)
    lip = diffusion.get("lipschitz")
    if lip is not None:
        if not isinstance(lip, dict):
            errors.add("diffusion.lipschitz", "expected an object of radius: constant pairs")
        else:
            for radius, constant in lip.items():
                try:
                    float(radius)
                except ValueError:
                    errors.add(f"diffusion.lipschitz.{radius}", "radius must be numeric")
                _expect_number(constant, f"diffusion.lipschitz.{radius}", errors,
                               minimum=0.0)
    if diffusion.get("linear_growth") is not None:
        _expect_number(diffusion["linear_growth"], "diffusion.linear_growth", errors,
                       minimum=0.0)
    data["diffusion"] = diffusion

    noise = dict(DEFAULTS["noise"])
    if "noise" in raw:
        supplied = _expect_mapping(raw["noise"], "noise", errors)
        if supplied is not None:
            noise = dict(supplied)
    if noise.get("kind") == "white":
        _check_keys(noise, {"kind", "lumped"}, "noise", errors)
        if not isinstance(noise.get("lumped", False), bool):
            errors.add("noise.lumped", "expected a boolean")
        noise.setdefault("lumped", False)
    elif noise.get("kind") == "colored":
        _check_keys(noise, {"kind", "decay", "modes", "amplitudes"}, "noise", errors)
        decay = _expect_number(noise.get("decay"), "noise.decay", errors)
        if decay is not None and decay <= 0.5:
            errors.add("noise.decay", f"spectral decay must exceed 0.5, got {decay}")
        if "modes" in noise:
            _expect_int(noise["modes"], "noise.modes", errors, minimum=1)
        if "amplitudes" in noise:
            amps = noise["amplitudes"]
            if isinstance(amps, list):
                for i, a in enumerate(amps):
                    _expect_number(a, f"noise.amplitudes[{i}]", errors, minimum=0.0)
            else:
                _expect_number(amps, "noise.amplitudes", errors, minimum=0.0)
    else:
        errors.add("noise.kind", f"expected white or colored, got {noise.get('kind')!r}")
    data["noise"] = noise

    mesh = dict(DEFAULTS["mesh"])
    supplied = _expect_mapping(raw.get("mesh", {}), "mesh", errors)
    if supplied is not None:
        _check_keys(supplied, {"interior_nodes"}, "mesh", errors)
        mesh.update(supplied)
    _expect_int(mesh["interior_nodes"], "mesh.interior_nodes", errors, minimum=1)
    data["mesh"] = mesh

    solver = dict(DEFAULTS["solver"])
    supplied = _expect_mapping(raw.get("solver", {}), "solver", errors)
    if supplied is not None:
        _check_keys(supplied, set(solver), "solver", errors)
        solver.update(supplied)
    if solver["scheme"] not in SCHEMES:
        errors.add("solver.scheme", f"expected one of {SCHEMES}, got {solver['scheme']!r}")
    dt = _expect_number(solver["dt"], "solver.dt", errors, minimum=0.0, strict=True)
    t_end = _expect_number(solver["t_end"], "solver.t_end", errors, minimum=0.0, strict=True)
    if dt is not None and t_end is not None and dt > t_end:
        errors.add("solver.dt", f"dt={dt} exceeds t_end={t_end}")
    _expect_int(solver["snapshot_stride"], "solver.snapshot_stride", errors, minimum=1)
    _expect_number(solver["blowup_guard"], "solver.blowup_guard", errors, minimum=0.0,
                   strict=True)
    data["solver"] = solver

    _check_coefficient(raw.get("initial", DEFAULTS["initial"]), "initial", ("x",), errors)
    data["initial"] = raw.get("initial", DEFAULTS["initial"])

    experiment = dict(DEFAULTS["experiment"])
    if "experiment" in raw:
        supplied = _expect_mapping(raw["experiment"], "experiment", errors)
        if supplied is not None:
            experiment = dict(supplied)
    name = experiment.get("name", "simulate")
    if name not in EXPERIMENTS:
        errors.add("experiment.name", f"expected one of {EXPERIMENTS}, got {name!r}")
    else:
        merged = dict(EXPERIMENT_DEFAULTS[name])
        merged["name"] = name
        extra = set(experiment) - set(merged)
        for key in sorted(extra):
            errors.add(f"experiment.{key}", f"unknown key for experiment {name!r}")
        merged.update({k: v for k, v in experiment.items() if k in merged})
        experiment = merged
        if name in ("simulate", "holder", "convergence"):
            _expect_int(experiment.get("trajectories"), "experiment.trajectories",
                        errors, minimum=1)
        if name == "spectrum":
            _expect_int(experiment.get("count"), "experiment.count", errors, minimum=1)
        if name == "holder":
            lags = experiment.get("lags")
            if not isinstance(lags, list) or len(lags) < 4:
                errors.add("experiment.lags", "expected a list of at least 4 lags")
            else:
                for i, lag in enumerate(lags):
                    _expect_number(lag, f"experiment.lags[{i}]", errors, minimum=0.0,
                                   strict=True)
            if experiment.get("norm") not in ("E2", "Einf"):
                errors.add("experiment.norm", "expected E2 or Einf")
            _expect_number(experiment.get("burn_fraction"), "experiment.burn_fraction",
                           errors, minimum=0.0)
        if name == "convergence":
            ladder = experiment.get("dt_ladder")
            if not isinstance(ladder, list) or len(ladder) < 4:
                errors.add("experiment.dt_ladder", "expected a list of at least 4 steps")
            else:
                for i, step in enumerate(ladder):
                    _expect_number(step, f"experiment.dt_ladder[{i}]", errors,
                                   minimum=0.0, strict=True)
            if experiment.get("norm") not in ("E2", "Einf"):
                errors.add("experiment.norm", "expected E2 or Einf")
        if name == "validate":
            _expect_int(experiment.get("lattice_time"), "experiment.lattice_time",
                        errors, minimum=2)
            _expect_int(experiment.get("lattice_space"), "experiment.lattice_space",
                        errors, minimum=2)
    data["experiment"] = experiment

    seed = raw.get("seed", DEFAULTS["seed"])
    if isinstance(seed, bool) or not isinstance(seed, int):
        errors.add("seed", "expected an integer")
    else:
        data["seed"] = seed

    if "output_dir" in raw:
        if not isinstance(raw["output_dir"], str):
            errors.add("output_dir", "expected a string")
        else:
            data["output_dir"] = raw["output_dir"]

    errors.raise_if_any()
    return RunConfig(data, config_hash(data), source=source)


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuiltModel:
    """All solver-ready objects produced from one configuration."""

    config: RunConfig
    graph: MetricGraph
    mesh: Mesh
    fields: EdgeFieldSet
    vertex_matrix: VertexMatrix
    system: DiscreteSystem
    drift: DriftSpec | None
    allen_cahn: AllenCahnSpec | None
    diffusion: DiffusionSpec | None
    noise: NoiseModel | None
    problem: Problem


def _coefficient_to_spec(value, variables):
    if isinstance(value, str):
        return parse_expression(value, variables)
    if isinstance(value, list):
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
            return value
        return [_coefficient_to_spec(v, variables) for v in value]
    return value


@dataclass(frozen=True)
class BuiltCoefficients:
    """The assembly-free part of a configuration: graph and coefficient data."""

    graph: MetricGraph
    vertex_matrix: VertexMatrix
    fields: EdgeFieldSet
    drift: DriftSpec | None
    allen_cahn: AllenCahnSpec | None
    diffusion: DiffusionSpec


def build_coefficients(config: RunConfig) -> BuiltCoefficients:
    """Instantiate graph, vertex matrix and coefficient specs (no assembly)."""
    data = config.data
    graph = build_graph(data["graph"]["n_vertices"],
                        [tuple(p) for p in data["graph"]["edges"]])
    m = graph.n_edges
    matrix = VertexMatrix(np.array(data["vertex_matrix"], dtype=float),
                          zero_ok=data["vertex_matrix_zero_ok"])

    f = data["fields"]
    base_fields = build_edge_fields(
        m,
        conductance=_coefficient_to_spec(f["conductance"], ("x",)),
        potential=_coefficient_to_spec(f["potential"], ("x",)),
        weights=f["weights"],
    )

    drift_cfg = data["drift"]
    allen_cahn = None
    drift = None
    fields = base_fields
    if drift_cfg["type"] == "allen_cahn":
        allen_cahn = allen_cahn_system(drift_cfg["betas"], base_fields)
        drift = allen_cahn.drift
        fields = allen_cahn.fields
    elif drift_cfg["type"] == "polynomial":
        drift = polynomial_drift(
            drift_cfg["degree"],
            _coefficient_to_spec(drift_cfg["coefficients"], ("t", "x")),
            n_edges=m,
            lower_bound=drift_cfg["lower_bound"],
            upper_bound=drift_cfg["upper_bound"],
        )

    diff_cfg = data["diffusion"]
    lipschitz = sorted((float(r), float(c)) for r, c in (diff_cfg.get("lipschitz") or {}).items())
    diffusion = build_diffusion(
        m,
        _coefficient_to_spec(diff_cfg["expression"], ("t", "x", "u")),
        lipschitz=lipschitz,
        linear_growth=diff_cfg.get("linear_growth"),
    )
    return BuiltCoefficients(graph, matrix, fields, drift, allen_cahn, diffusion)


def build_model(config: RunConfig) -> BuiltModel:
    """Instantiate graph, coefficients, discretization and solver objects."""
    data = config.data
    built = build_coefficients(config)
    graph, matrix, fields = built.graph, built.vertex_matrix, built.fields
    drift, allen_cahn, diffusion = built.drift, built.allen_cahn, built.diffusion

    mesh = build_mesh(graph, data["mesh"]["interior_nodes"])
    system = assemble_form(mesh, fields, matrix)

    noise_cfg = data["noise"]
    if noise_cfg["kind"] == "white":
        noise = white_noise_model(system, seed=data["seed"], lumped=noise_cfg["lumped"])
    else:
        noise = colored_noise_operator(
            system, noise_cfg["decay"], seed=data["seed"],
            amplitudes=noise_cfg.get("amplitudes"), n_modes=noise_cfg.get("modes"))

    initial = interpolate(mesh, _coefficient_to_spec(data["initial"], ("x",)))
    solver = data["solver"]
    cfg = SolverConfig(dt=solver["dt"], t_end=solver["t_end"], scheme=solver["scheme"],
                       snapshot_stride=solver["snapshot_stride"],
                       blowup_guard=solver["blowup_guard"])
    problem = Problem(system, cfg, initial, drift, diffusion, noise,
                      config_hash=config.hash)
    return BuiltModel(config, graph, mesh, fields, matrix, system, drift,
                      allen_cahn, diffusion, noise, problem)
