"""The run-config schema table against the section-by-section normalizer it
replaced, its non-finite number checks, and the README key reference."""

import json
import re
from collections import Counter
from pathlib import Path

import pytest

from _oracles import reference_normalize_config
from netsde.cli import run_command
from netsde.config import SCHEMA, _Variants, normalize_config
from netsde.errors import SchemaViolation

ROOT = Path(__file__).resolve().parents[1]
BASE_FILES = sorted((ROOT / "perfbench" / "configs").glob("*.json")) \
    + sorted((ROOT / "tests" / "golden" / "configs").glob("*.json"))

MINIMAL = {
    "graph": {"n_vertices": 2, "edges": [[1, 2]]},
    "vertex_matrix": [[-1, 1], [1, -1.5]],
    "vertex_matrix_zero_ok": False,
    "fields": {"conductance": "1 + x", "potential": [0.0, 0.5, 1.0], "weights": [2]},
    "diffusion": {"expression": "1 + 0.1*u", "lipschitz": {"2": 0.1}, "linear_growth": 1},
    "mesh": {"interior_nodes": 3},
    "solver": {"scheme": "semi_implicit_plain", "dt": 0.01, "t_end": 1,
               "snapshot_stride": 2, "blowup_guard": 1e3},
    "initial": "sin(pi*x)",
    "drift": {"type": "allen_cahn", "betas": [1.5]},
    "noise": {"kind": "white"},
    "experiment": {"name": "simulate"},
    "seed": 3,
    "output_dir": "out",
}
DRIFTS = [
    {"type": "none"},
    {"type": "allen_cahn", "betas": 1},
    {"type": "polynomial", "degree": 1, "coefficients": [[0, "1 + t", 0.5, [1, 2]]],
     "lower_bound": 1, "upper_bound": 10},
]
NOISES = [
    {"kind": "white", "lumped": True},
    {"kind": "colored", "decay": 1, "modes": 4, "amplitudes": [0.5]},
]
EXPERIMENTS = [
    {"name": "validate", "lattice_time": 8, "lattice_space": 9},
    {"name": "spectrum", "count": 2},
    {"name": "simulate", "trajectories": 3},
    {"name": "holder", "lags": [0.04, 0.08, 0.16, 0.32], "trajectories": 5, "norm": "Einf",
     "burn_fraction": 0},
    {"name": "convergence", "dt_ladder": [0.01, 0.02, 0.04, 0.08], "trajectories": 4},
]

# a fixed list of replacement values for every path, valid at some paths
WRONG = [None, True, "x", "1 + x", "u^^3", -1, 0, 2, 1e-3, 0.25, 1.5, [], [1.0, 2.0],
         [[1, 2]], [0.01, 0.02, 0.04, 0.08], {}, {"1.5": 0.5}]
# and the names a tag or choice key can take, plus the removed scheme
# exponential_euler, which both normalizers reject
NAMES = {
    "type": ["none", "allen_cahn", "polynomial"],
    "kind": ["white", "colored"],
    "name": ["validate", "spectrum", "simulate", "holder", "convergence"],
    "scheme": ["semi_implicit_tamed", "semi_implicit_plain", "exponential_euler"],
    "norm": ["E2", "Einf"],
}
UNKNOWN = "zz_unknown"


def base_configs():
    """(config, sections to mutate): the perfbench and golden configs and the
    minimal config whole, then the minimal config with each drift, noise and
    experiment variant, mutated in that section only."""
    bases = [(json.loads(path.read_text()), None) for path in BASE_FILES] + [(MINIMAL, None)]
    for section, variants in (("drift", DRIFTS), ("noise", NOISES), ("experiment", EXPERIMENTS)):
        bases += [({**MINIMAL, section: variant}, (section,)) for variant in variants]
    return bases


def paths(tree, prefix=()):
    """Every dict key and list index path below ``tree``."""
    items = tree.items() if isinstance(tree, dict) else \
        enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def mutate(tree, path, op, value=None):
    """A copy of ``tree`` with ``op`` (set, delete or unknown sibling) applied
    at ``path``.  Missing parent objects are created; everything off the path
    is shared."""
    node = dict(tree) if isinstance(tree, dict) else list(tree)
    key, rest = path[0], path[1:]
    if rest:
        child = tree[key] if isinstance(tree, list) or key in tree else {}
        node[key] = mutate(child, rest, op, value)
    elif op == "set":
        node[key] = value
    elif op == "delete":
        node.pop(key, None) if isinstance(node, dict) else node.pop(key)
    else:
        node[UNKNOWN] = 1
    return node


def mutations(base, sections=None):
    """The base, then for every path of its normalized form (defaults
    included, list indices up to 1) in ``sections`` (default all): each
    replacement value, a deletion and an unknown sibling.  Every object is
    also replaced by objects with all its keys wrong at once, the values
    taken in turn from ``WRONG``, so that errors in one section meet."""
    yield base
    data, _ = reference_normalize_config(base)
    if not sections:
        yield from scrambled(data)
    for path in paths(data):
        if sections and path[0] not in sections or \
                any(isinstance(key, int) and key > 1 for key in path):
            continue
        for value in WRONG + NAMES.get(path[-1], []):
            yield mutate(base, path, "set", value)
        yield mutate(base, path, "delete")
        if isinstance(path[-1], str):
            yield mutate(base, path, "unknown")
        node = data
        for key in path:
            node = node[key]
        if isinstance(node, dict):
            yield from (mutate(base, path, "set", wrong) for wrong in scrambled(node))


def scrambled(node):
    """Copies of the object ``node`` with every value replaced, the values
    taken in turn from ``WRONG``."""
    return [{key: WRONG[(i + k) % len(WRONG)] for k, key in enumerate(node)}
            for i in range(len(WRONG))]


def generated_configs():
    yield from ([], "config", None)
    for base, sections in base_configs():
        yield from mutations(base, sections)


def test_schema_table_matches_section_by_section_normalizer():
    outcomes = Counter()
    for raw in generated_configs():
        try:
            expected = reference_normalize_config(raw)
        except SchemaViolation as err:
            with pytest.raises(SchemaViolation) as new:
                normalize_config(raw)
            assert new.value.errors == err.errors, raw
            outcomes["rejected"] += 1
        except (TypeError, ValueError):
            # the reference crashed converting a malformed edge or matrix entry
            with pytest.raises(SchemaViolation) as new:
                normalize_config(raw)
            assert any(path.startswith(("graph.edges[", "vertex_matrix["))
                       for path, _ in new.value.errors), raw
            outcomes["reference crashed"] += 1
        else:
            config = normalize_config(raw)
            assert (config.data, config.hash) == expected, raw
            outcomes["accepted"] += 1
    assert sum(outcomes.values()) >= 10_000
    assert outcomes["accepted"] >= 1_000 and outcomes["rejected"] >= 1_000


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("path, value, where", [
    (("solver", "blowup_guard"), NAN, "solver.blowup_guard"),
    (("solver", "dt"), INF, "solver.dt"),
    (("solver", "t_end"), 10 ** 400, "solver.t_end"),
    (("experiment",), {"name": "holder", "burn_fraction": INF}, "experiment.burn_fraction"),
    (("experiment",), {"name": "holder", "lags": [1e-3, NAN, 4e-3, 8e-3]},
     "experiment.lags[1]"),
    (("noise",), {"kind": "colored", "decay": NAN}, "noise.decay"),
    (("noise",), {"kind": "colored", "decay": 2, "amplitudes": [-INF]},
     "noise.amplitudes[0]"),
    (("drift",), {"type": "allen_cahn", "betas": NAN}, "drift.betas"),
    (("drift",), {"type": "polynomial", "degree": 0, "coefficients": [NAN, 1.0]},
     "drift.coefficients[0]"),
    (("drift",), {"type": "polynomial", "degree": 0, "coefficients": [[0.0, [1.0, INF]]]},
     "drift.coefficients[0][1][1]"),
    (("fields", "conductance"), NAN, "fields.conductance"),
    (("fields", "potential"), [0.0, [0.0, NAN]], "fields.potential[1][1]"),
    (("fields", "weights"), [1.0, INF], "fields.weights[1]"),
    (("diffusion", "expression"), -INF, "diffusion.expression"),
    (("diffusion", "lipschitz"), {"nan": 1.0}, "diffusion.lipschitz.nan"),
    (("diffusion", "lipschitz"), {"Infinity": 1.0}, "diffusion.lipschitz.Infinity"),
    (("diffusion", "lipschitz"), {"2": INF}, "diffusion.lipschitz.2"),
    (("diffusion", "linear_growth"), NAN, "diffusion.linear_growth"),
    (("vertex_matrix", 1, 0), NAN, "vertex_matrix[1][0]"),
    (("initial",), INF, "initial"),
])
def test_non_finite_numbers_rejected_with_path(path, value, where):
    raw = mutate(MINIMAL, path, "set", value)
    with pytest.raises(SchemaViolation) as err:
        normalize_config(raw)
    assert [error_path for error_path, _ in err.value.errors] == [where]


@pytest.mark.parametrize("radius", ["0", "-1", "-0.0"])
def test_nonpositive_lipschitz_radius_rejected_with_path(radius):
    raw = mutate(MINIMAL, ("diffusion", "lipschitz"), "set", {radius: 1.0})
    with pytest.raises(SchemaViolation) as err:
        normalize_config(raw)
    assert err.value.errors == [
        (f"diffusion.lipschitz.{radius}", f"radius must be positive, got {float(radius)}")]


def test_cli_rejects_infinite_burn_fraction(tmp_path, capsys):
    raw = {**MINIMAL, "experiment": {"name": "holder", "burn_fraction": INF}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))  # written as the JSON literal Infinity
    assert "Infinity" in path.read_text()
    assert run_command(["holder", "--config", str(path), "--output-dir", str(tmp_path)]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("netsde: error:")]
    assert len(errors) == 1 and "experiment.burn_fraction" in errors[0]


def test_cli_rejects_removed_scheme(tmp_path, capsys):
    raw = mutate(MINIMAL, ("solver", "scheme"), "set", "exponential_euler")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run_command(["simulate", "--config", str(path), "--output-dir", str(out)]) == 1
    assert not (out / "manifest.json").exists()
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("netsde: error:")]
    assert len(errors) == 1 and "solver.scheme" in errors[0]
    assert "semi_implicit_tamed" in errors[0] and "semi_implicit_plain" in errors[0]


def schema_keys(table):
    for key, (_, check) in table.items():
        yield key
        if isinstance(check, dict):
            yield from schema_keys(check)
        elif isinstance(check, _Variants):
            yield check.tag
            for variant in check.tables.values():
                yield from schema_keys(variant)


def test_readme_key_reference_names_every_schema_key():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    reference = readme.split("Key reference")[1].split("\n### ")[0]
    named = {word for span in re.findall(r"`([^`]*)`", reference)
             for word in re.findall(r"[A-Za-z_]+", span)}
    assert sorted(set(schema_keys(SCHEMA)) - named) == []
