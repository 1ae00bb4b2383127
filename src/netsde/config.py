"""Run configuration: JSON schema validation, canonical hashing, and the
construction of solver-ready objects.

Configs are strict: ``SCHEMA`` states every key once, and unknown keys,
non-finite numbers and other violations are reported with their JSON
paths.  The normalized (defaults-filled) document is what gets hashed, so
semantically identical files produce identical hashes and manifests.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembly import assemble_form
from .errors import ConfigurationError, SchemaViolation
from .expressions import parse_expression
from .fields import (
    DiffusionSpec,
    DriftSpec,
    EdgeFieldSet,
    allen_cahn_system,
    build_diffusion,
    build_edge_fields,
    polynomial_drift,
)
from .graph import MetricGraph, VertexMatrix, build_graph
from .mesh import build_mesh, interpolate
from .noise import colored_noise_operator, white_noise_model
from .sde import SCHEMES, Problem, SolverConfig


class _Collector:
    def __init__(self):
        self.errors = []

    def add(self, path, message):
        self.errors.append((path, message))

    def raise_if_any(self):
        if self.errors:
            raise SchemaViolation(self.errors)


# A check ``check(value, path, errors, section)`` reports what is wrong with
# ``value`` at JSON path ``path`` and returns the value to keep; number and
# integer checks return None for an invalid value.  ``section`` holds the
# values kept so far for earlier keys of the same section.

def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _accept(test, message):
    """A value for which ``test`` holds; ``message.format(value)`` otherwise."""
    def check(value, path, errors, section=None):
        if test(value):
            return value
        errors.add(path, message.format(value))
        return None
    return check


def _number(minimum=None, strict=False):
    """A finite number, at least (``strict``: greater than) ``minimum``."""
    def check(value, path, errors, section=None):
        if not _is_number(value):
            errors.add(path, f"expected a number, got {type(value).__name__}")
        elif not _finite(value):
            errors.add(path, "must be a finite number")
        elif minimum is not None and (value <= minimum if strict else value < minimum):
            bound = "greater than" if strict else "at least"
            errors.add(path, f"must be {bound} {minimum}, got {float(value)}")
        else:
            return value
        return None
    return check


def _integer(minimum):
    def check(value, path, errors, section=None):
        if not _is_int(value):
            errors.add(path, f"expected an integer, got {type(value).__name__}")
        elif value < minimum:
            errors.add(path, f"must be at least {minimum}, got {value}")
        else:
            return value
        return None
    return check


def _seed(value, path, errors, section=None):
    """An integer in [0, 2^64): the streams key on the seed's low 64 bits,
    so seeds outside that range would share another seed's streams."""
    if not _is_int(value):
        errors.add(path, "expected an integer")
    elif not 0 <= value < 1 << 64:
        errors.add(path, f"must be in [0, 2**64), got {value}")
    else:
        return value
    return None


def _numbers(minimum, strict=False):
    """A number or a list of numbers, each checked by ``_number``."""
    number = _number(minimum, strict)

    def check(value, path, errors, section=None):
        if not isinstance(value, list):
            return number(value, path, errors)
        for i, entry in enumerate(value):
            number(entry, f"{path}[{i}]", errors)
        return value
    return check


def _coefficient(variables, per_edge=True):
    """A number, an expression string in ``variables``, nodal samples, or
    (``per_edge``) a list of those, one per edge."""
    edge_value = _coefficient(variables, per_edge=False) if per_edge else None

    def check(value, path, errors, section=None):
        if isinstance(value, str):
            try:
                parse_expression(value, variables)
            except Exception as err:
                errors.add(path, str(err))
        elif isinstance(value, bool):
            errors.add(path, "expected a number, expression, or list")
        elif isinstance(value, (int, float)):
            if not _finite(value):
                errors.add(path, "must be a finite number")
        elif isinstance(value, list) and per_edge:
            for i, entry in enumerate(value):
                edge_value(entry, f"{path}[{i}]", errors)
        elif isinstance(value, list):
            for i, entry in enumerate(value):
                if not _is_number(entry):
                    errors.add(f"{path}[{i}]", "nodal samples must be numbers")
                elif not _finite(entry):
                    errors.add(f"{path}[{i}]", "must be a finite number")
        else:
            errors.add(path, f"expected a number, expression, or list, got {type(value).__name__}")
        return value
    return check


_finite_number = _number()
_positive = _number(0.0, strict=True)
_positives = _numbers(0.0, strict=True)
_nonnegative = _number(0.0)
_boolean = _accept(lambda value: isinstance(value, bool), "expected a boolean")
_norm = _accept(lambda value: value in ("E2", "Einf"), "expected E2 or Einf")


def _ladder(noun):
    def check(value, path, errors, section=None):
        if not isinstance(value, list) or len(value) < 4:
            errors.add(path, f"expected a list of at least 4 {noun}")
            return None
        return _positives(value, path, errors)
    return check


def _edges(value, path, errors, section=None):
    if not isinstance(value, list) or not value:
        errors.add(path, "expected a nonempty list of vertex pairs")
        return None
    for i, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_int, pair)):
            errors.add(f"{path}[{i}]", "expected a pair of integer vertex ids")
    return value


def _vertex_matrix(value, path, errors, section=None):
    if not isinstance(value, list) or not value:
        errors.add(path, "expected a nonempty list of rows")
        return None
    valid = True
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != len(value) or not all(map(_is_number, row)):
            errors.add(f"{path}[{i}]", f"expected a numeric row of length {len(value)}")
            valid = False
            continue
        for j, entry in enumerate(row):
            if not _finite(entry):
                errors.add(f"{path}[{i}][{j}]", "must be a finite number")
                valid = False
    return [[float(v) for v in row] for row in value] if valid else None


def _betas(value, path, errors, section=None):
    if value is None:
        errors.add(path, "required for allen_cahn drift")
        return None
    return _positives(value, path, errors)


_drift_coefficient = _coefficient(("t", "x"), per_edge=False)


def _coefficient_rows(value, path, errors, drift):
    """2k+2 coefficients (powers 0..2k+1) shared by all edges, or one row per edge."""
    if not isinstance(value, list) or not value:
        errors.add(path, "expected a list of coefficients")
        return None
    degree = drift["degree"]
    if degree is None:
        return value
    nested = isinstance(value[0], list)
    for r, row in enumerate(value if nested else [value]):
        prefix = f"{path}[{r}]" if nested else path
        if not isinstance(row, list) or len(row) != 2 * degree + 2:
            errors.add(prefix, f"expected {2 * degree + 2} entries (powers 0..{2 * degree + 1})")
            continue
        for l, entry in enumerate(row):
            _drift_coefficient(entry, f"{prefix}[{l}]", errors)
    return value


def _lipschitz(value, path, errors, section=None):
    if value is None:
        return None
    if not isinstance(value, dict):
        errors.add(path, "expected an object of radius: constant pairs")
        return value
    for radius, constant in value.items():
        try:
            r = float(radius)
        except ValueError:
            errors.add(f"{path}.{radius}", "radius must be numeric")
        else:
            if not _finite(r):
                errors.add(f"{path}.{radius}", "radius must be finite")
            elif r <= 0.0:
                errors.add(f"{path}.{radius}", f"radius must be positive, got {r}")
        _nonnegative(constant, f"{path}.{radius}", errors)
    return value


def _decay(value, path, errors, section=None):
    decay = _finite_number(value, path, errors)
    if decay is not None and decay <= 0.5:
        errors.add(path, f"spectral decay must exceed 0.5, got {float(decay)}")
        return None
    return decay


def _t_end(value, path, errors, solver):
    t_end = _positive(value, path, errors)
    dt = solver["dt"]
    if dt is not None and t_end is not None and float(dt) > float(t_end):
        errors.add("solver.dt", f"dt={float(dt)} exceeds t_end={float(t_end)}")
    return t_end


@dataclass(frozen=True)
class _Variants:
    """A section whose key table is chosen by the value of its ``tag`` key."""

    tag: str
    fallback: object      # the tag of a given section that has none
    unknown_tag: str      # message for a tag without a table (``tag``, ``names``)
    tables: dict          # tag value -> key table
    unknown_key: str = "unknown key"
    sort_unknown: bool = False


# The run-config schema: key -> (default, check).  A check is a function, a
# nested key table, or _Variants.  A default of None makes the key required
# (its check sees None); _OPTIONAL leaves an absent key absent.
_OPTIONAL = object()

SCHEMA = {
    "graph": (None, {"n_vertices": (None, _integer(1)), "edges": (None, _edges)}),
    "vertex_matrix": (None, _vertex_matrix),
    "vertex_matrix_zero_ok": (False, _boolean),
    "fields": ({}, {
        "conductance": (1.0, _coefficient(("x",))),
        "potential": (0.0, _coefficient(("x",))),
        "weights": (1.0, _positives),
    }),
    "drift": ({"type": "none"}, _Variants(
        "type", None, "expected one of none/allen_cahn/polynomial, got {tag!r}", {
            "none": {},
            "allen_cahn": {"betas": (None, _betas)},
            "polynomial": {
                "degree": (None, _integer(0)),
                "coefficients": (None, _coefficient_rows),
                "lower_bound": (1e-6, _positive),
                "upper_bound": (1e6, _positive),
            },
        })),
    "diffusion": ({}, {
        "expression": (1.0, _coefficient(("t", "x", "u"))),
        "lipschitz": (_OPTIONAL, _lipschitz),
        "linear_growth": (_OPTIONAL,
                          lambda value, *rest: None if value is None else _nonnegative(value, *rest)),
    }),
    "noise": ({"kind": "white"}, _Variants(
        "kind", None, "expected white or colored, got {tag!r}", {
            "white": {"lumped": (False, _boolean)},
            "colored": {
                "decay": (None, _decay),
                "modes": (_OPTIONAL, _integer(1)),
                "amplitudes": (_OPTIONAL, _numbers(0.0)),
            },
        })),
    "mesh": ({}, {"interior_nodes": (16, _integer(1))}),
    "solver": ({}, {
        "scheme": ("semi_implicit_tamed",
                   _accept(lambda value: value in SCHEMES, f"expected one of {SCHEMES}, got {{!r}}")),
        "dt": (1e-3, _positive),
        "t_end": (1.0, _t_end),
        "snapshot_stride": (1, _integer(1)),
        "blowup_guard": (1e6, _positive),
    }),
    "initial": (0.0, _coefficient(("x",))),
    "experiment": ({}, _Variants(
        "name", "simulate", "expected one of {names}, got {tag!r}", {
            "validate": {"lattice_time": (64, _integer(2)), "lattice_space": (64, _integer(2))},
            "spectrum": {"count": (10, _integer(1))},
            "simulate": {"trajectories": (1, _integer(1))},
            "holder": {
                "trajectories": (100, _integer(1)),
                "lags": ([1e-3, 2e-3, 4e-3, 8e-3], _ladder("lags")),
                "norm": ("E2", _norm),
                "burn_fraction": (0.25, _nonnegative),
            },
            "convergence": {
                "trajectories": (50, _integer(1)),
                "dt_ladder": ([1e-4, 1e-3, 2e-3, 4e-3], _ladder("steps")),
                "norm": ("E2", _norm),
            },
        }, unknown_key="unknown key for experiment {tag!r}", sort_unknown=True)),
    "seed": (0, _seed),
    "output_dir": (_OPTIONAL, _accept(lambda value: isinstance(value, str), "expected a string")),
}

EXPERIMENT_DEFAULTS = {name: {key: default for key, (default, _) in table.items()}
                       for name, table in SCHEMA["experiment"][1].tables.items()}


def _walk(section: dict, table, path: str, errors: _Collector):
    """Normalize one mapping against its key table (a _Variants picks one by
    tag): report unknown keys, then run the checks in table order."""
    prefix = f"{path}." if path else ""
    out, message, order = {}, "unknown key", list
    if isinstance(table, _Variants):
        variants, tag = table, section.get(table.tag, table.fallback)
        table = variants.tables.get(tag) if isinstance(tag, str) else None
        if table is None:
            errors.add(prefix + variants.tag,
                       variants.unknown_tag.format(tag=tag, names=tuple(variants.tables)))
            return section
        out[variants.tag] = tag
        message = variants.unknown_key.format(tag=tag)
        order = sorted if variants.sort_unknown else list
    for key in order(key for key in section if key not in table and key not in out):
        errors.add(f"{prefix}{key}", message)
    for key, (default, check) in table.items():
        if key in section:
            value = section[key]
        elif default is _OPTIONAL:
            continue
        else:
            value = copy.copy(default)  # kept data must not share the table's lists
        if isinstance(check, (dict, _Variants)):
            if not isinstance(value, dict):
                errors.add(prefix + key, f"expected an object, got {type(value).__name__}")
                value = default
            out[key] = None if value is None else _walk(value, check, prefix + key, errors)
        else:
            out[key] = check(value, prefix + key, errors, out)
    return out


@dataclass(frozen=True)
class RunConfig:
    """A validated, normalized run configuration."""

    data: dict
    hash: str

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
        if trajectories is not None:
            if "trajectories" not in data["experiment"]:
                raise ConfigurationError(f"the {data['experiment']['name']!r} experiment has "
                                         "no trajectory count to override")
            data["experiment"]["trajectories"] = int(trajectories)
        if output_dir is not None:
            data["output_dir"] = str(output_dir)
        return normalize_config(data)


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
        raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise SchemaViolation([("", f"not valid JSON: {err}")]) from None
    return normalize_config(raw)


def _unique_keys(pairs) -> dict:
    """A JSON object's dict; a key given twice is an error, not a silent
    override by its last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise SchemaViolation([("", f"duplicate key {key!r}")])
        out[key] = value
    return out


def normalize_config(raw: dict) -> RunConfig:
    errors = _Collector()
    if not isinstance(raw, dict):
        errors.add("", "top level must be an object")
        errors.raise_if_any()
    data = _walk(raw, SCHEMA, "", errors)
    errors.raise_if_any()
    return RunConfig(data, config_hash(data))


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuiltCoefficients:
    """The assembly-free part of a configuration: graph and coefficient data."""

    graph: MetricGraph
    vertex_matrix: VertexMatrix
    fields: EdgeFieldSet
    drift: DriftSpec | None
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
    base_fields = build_edge_fields(m, f["conductance"], f["potential"], f["weights"])

    drift_cfg = data["drift"]
    drift = None
    fields = base_fields
    if drift_cfg["type"] == "allen_cahn":
        allen_cahn = allen_cahn_system(drift_cfg["betas"], base_fields)
        drift, fields = allen_cahn.drift, allen_cahn.fields
    elif drift_cfg["type"] == "polynomial":
        drift = polynomial_drift(drift_cfg["degree"], drift_cfg["coefficients"], n_edges=m,
                                 lower_bound=drift_cfg["lower_bound"],
                                 upper_bound=drift_cfg["upper_bound"])

    diff_cfg = data["diffusion"]
    lipschitz = sorted((float(r), float(c)) for r, c in (diff_cfg.get("lipschitz") or {}).items())
    diffusion = build_diffusion(m, diff_cfg["expression"], lipschitz=lipschitz,
                                linear_growth=diff_cfg.get("linear_growth"))
    return BuiltCoefficients(graph, matrix, fields, drift, diffusion)


def build_model(config: RunConfig) -> Problem:
    """Instantiate graph, coefficients, discretization and solver objects."""
    data = config.data
    built = build_coefficients(config)
    mesh = build_mesh(built.graph, data["mesh"]["interior_nodes"])
    system = assemble_form(mesh, built.fields, built.vertex_matrix)

    noise_cfg = data["noise"]
    if noise_cfg["kind"] == "white":
        noise = white_noise_model(system, seed=data["seed"], lumped=noise_cfg["lumped"])
    else:
        noise = colored_noise_operator(
            system, noise_cfg["decay"], seed=data["seed"],
            amplitudes=noise_cfg.get("amplitudes"), n_modes=noise_cfg.get("modes"))

    initial = interpolate(mesh, data["initial"])
    return Problem(system, SolverConfig(**data["solver"]), initial, built.drift,
                   built.diffusion, noise)
