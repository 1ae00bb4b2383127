"""Per-edge coefficient data: conductances, potentials, weights, drift and
noise coefficients, and the double-well (Allen-Cahn) specialization.

Edge functions may be supplied as python callables, compiled Expressions,
plain numbers, or nodal sample arrays on a uniform grid over [0,1] (linearly
interpolated).  All evaluation helpers are vectorized over numpy arrays and
pure, so a frozen spec is safe to share between concurrent trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativePotential,
    NonpositiveBeta,
    NonpositiveConductance,
    NonpositiveWeight,
)
from .expressions import Expression
from .graph import MetricGraph, edge_indices_at_vertex
from .report import Check, ValidationReport


def _constant_fn(v):
    def fn(*args):
        if not args:
            return v
        shape = np.broadcast(*(np.asarray(a) for a in args)).shape
        return np.full(shape, v) if shape else v
    return fn


def as_edge_function(value, variables=("x",)):
    """Coerce a scalar / Expression / callable / nodal array to a callable.

    Nodal arrays are interpreted as samples on a uniform grid over [0,1];
    they only make sense for single-variable functions of x.
    """
    if isinstance(value, Expression):
        return lambda *args: value(**dict(zip(variables, args)))
    if callable(value):
        return value
    if isinstance(value, (list, tuple, np.ndarray)) and np.ndim(value) == 1:
        samples = np.asarray(value, dtype=float)
        if samples.size < 2:
            raise DimensionMismatch("nodal samples need at least two points")
        if variables != ("x",):
            raise DimensionMismatch("nodal samples are only supported for functions of x")
        grid = np.linspace(0.0, 1.0, samples.size)
        return lambda x, s=samples, g=grid: np.interp(x, g, s)
    return _constant_fn(float(value))


def _constant_of(value):
    """Return the float value if ``value`` is a constant spec, else None."""
    if isinstance(value, Expression):
        return value.constant_value() if value.is_constant else None
    if isinstance(value, (int, float, np.floating, np.integer)):
        return float(value)
    return None


def _per_edge(value, m):
    """Broadcast a shared spec or a per-edge list to a list of length m.

    Lists of length m are read as one entry per edge; nodal sample vectors
    must therefore be numpy arrays, nested lists, or have length != m.
    """
    if isinstance(value, (list, tuple)):
        if len(value) == m:
            return list(value)
        if all(isinstance(v, (int, float, np.floating, np.integer)) for v in value):
            return [np.asarray(value, dtype=float)] * m
        raise DimensionMismatch(f"expected one entry per edge ({m}), got {len(value)}")
    return [value] * m


@dataclass(frozen=True)
class EdgeFieldSet:
    """Validated per-edge linear coefficients: c_j > 0, p_j >= 0, mu_j > 0."""

    conductance: tuple          # callables c_j(x)
    potential: tuple            # callables p_j(x)
    weights: np.ndarray         # mu_j

    @property
    def n_edges(self) -> int:
        return len(self.conductance)

    def conductance_endpoints(self) -> np.ndarray:
        """(m, 2) array of c_j evaluated at the edge endpoints."""
        return np.array([[float(c(0.0)), float(c(1.0))] for c in self.conductance])


def build_edge_fields(n_edges: int, conductance=1.0, potential=0.0, weights=1.0,
                      n_check: int = 129) -> EdgeFieldSet:
    """Build and validate the linear coefficient set.

    Positivity of c_j and nonnegativity of p_j are checked on a uniform
    sample grid; assembly re-checks at its quadrature points.
    """
    m = int(n_edges)
    c_specs = _per_edge(conductance, m)
    p_specs = _per_edge(potential, m)
    if np.ndim(weights) == 0:
        mu = np.full(m, float(weights))
    else:
        mu = np.asarray(weights, dtype=float)
    if mu.shape != (m,):
        raise DimensionMismatch(f"weights must be scalar or length {m}")
    if not np.all(mu > 0.0):
        raise NonpositiveWeight(f"edge weights must be positive, got {mu}")

    grid = np.linspace(0.0, 1.0, n_check)
    c_fns, p_fns = [], []
    for j in range(m):
        c = as_edge_function(c_specs[j])
        p = as_edge_function(p_specs[j])
        c_min = float(np.min(c(grid)))
        if not c_min > 0.0:
            raise NonpositiveConductance(f"conductance on edge {j + 1} reaches {c_min} <= 0")
        p_min = float(np.min(p(grid)))
        if not p_min >= 0.0:
            raise NegativePotential(f"potential on edge {j + 1} reaches {p_min} < 0")
        c_fns.append(c)
        p_fns.append(p)
    return EdgeFieldSet(tuple(c_fns), tuple(p_fns), mu)


def shifted_fields(fields: EdgeFieldSet, shifts) -> EdgeFieldSet:
    """Return a copy with p_j replaced by p_j + shift_j (shifts >= 0)."""
    shifts = np.asarray(shifts, dtype=float)
    if shifts.shape != (fields.n_edges,):
        raise DimensionMismatch("need one potential shift per edge")
    if not np.all(shifts >= 0.0):
        raise NegativePotential(f"potential shifts must be nonnegative, got {shifts}")
    shifted = tuple(
        (lambda x, p=p, s=s: p(x) + s) for p, s in zip(fields.potential, shifts)
    )
    return EdgeFieldSet(fields.conductance, shifted, fields.weights)


# ---------------------------------------------------------------------------
# polynomial reaction terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftSpec:
    """Odd-degree polynomial reaction term with a stabilizing leading sign.

    The value on edge j is ``-a[j][d](t,x) * eta^d + sum_{l<d} a[j][l](t,x) *
    eta^l`` with ``d = 2*degree + 1``.  ``lower_bound``/``upper_bound`` are
    the declared constants bounding the leading coefficient from below and
    all coefficients in magnitude.
    """

    degree: int                       # k; polynomial degree is 2k+1
    coefficients: tuple               # [edge][l] callables of (t, x), l = 0..2k+1
    lower_bound: float
    upper_bound: float
    constant_values: tuple            # [edge][l] float or None, detected constants

    @property
    def n_edges(self) -> int:
        return len(self.coefficients)

    @property
    def top_power(self) -> int:
        return 2 * self.degree + 1

    def is_constant(self) -> bool:
        return all(v is not None for row in self.constant_values for v in row)


def polynomial_drift(degree: int, coefficients, n_edges: int,
                     lower_bound: float = 1e-6, upper_bound: float = 1e6) -> DriftSpec:
    """Assemble a DriftSpec from per-edge (or shared) coefficient specs.

    ``coefficients`` is either one list of 2*degree+2 entries shared by all
    edges or a list of such lists, lowest power first.
    """
    k = int(degree)
    if k < 0:
        raise ValueError("degree parameter must be nonnegative")
    n_coeff = 2 * k + 2
    if coefficients and isinstance(coefficients[0], (list, tuple)):
        rows = [list(row) for row in coefficients]
    else:
        rows = [list(coefficients)] * n_edges
    if len(rows) != n_edges or any(len(r) != n_coeff for r in rows):
        raise DimensionMismatch(
            f"need {n_coeff} coefficients (powers 0..{2 * k + 1}) for each of {n_edges} edges")
    fns = tuple(tuple(as_edge_function(v, variables=("t", "x")) for v in row) for row in rows)
    consts = tuple(tuple(_constant_of(v) for v in row) for row in rows)
    return DriftSpec(k, fns, float(lower_bound), float(upper_bound), consts)


def eval_drift(spec: DriftSpec, t, x, edge: int, value):
    """Evaluate the reaction polynomial on an edge (1-based index).

    Detected constant coefficients enter as floats (so ``x`` may be None when
    the whole row is constant) and lower-order terms with the constant
    coefficient zero are skipped; the leading term is always evaluated.
    """
    consts = spec.constant_values[edge - 1]
    coeff = [fn(t, x) if c is None else c
             for fn, c in zip(spec.coefficients[edge - 1], consts)]
    d = spec.top_power
    value = np.asarray(value, dtype=float)
    # powers by repeated multiplication: value ** l goes through C pow,
    # which is far slower for arrays
    powers = [None, value]
    for l in range(2, d + 1):
        powers.append(powers[-1] * value)
    acc = -coeff[d] * powers[d]
    for l in range(1, d):
        if consts[l] != 0.0:
            acc = acc + coeff[l] * powers[l]
    if consts[0] != 0.0:
        acc = acc + coeff[0]
    return acc


def validate_drift(spec: DriftSpec, graph: MetricGraph, horizon: float = 1.0,
                   n_time: int = 64, n_space: int = 64) -> ValidationReport:
    """Sampled checks of the coefficient bounds and vertex compatibility.

    Bounds are scanned on an ``n_time x n_space`` lattice over
    [0,horizon]x[0,1] per edge.  Vertex compatibility requires, for every
    power and every vertex, equal coefficient values across all incident
    edges; the report records the worst mismatch.
    """
    if spec.n_edges != graph.n_edges:
        raise DimensionMismatch(
            f"drift has {spec.n_edges} edges but the graph has {graph.n_edges}")
    ts = np.linspace(0.0, horizon, n_time)
    xs = np.linspace(0.0, 1.0, n_space)
    tg, xg = np.meshgrid(ts, xs, indexing="ij")

    d = spec.top_power
    lead_min, lead_max, other_max = np.inf, -np.inf, 0.0
    for j in range(spec.n_edges):
        for l in range(d + 1):
            vals = np.broadcast_to(spec.coefficients[j][l](tg, xg), tg.shape)
            if l == d:
                lead_min = min(lead_min, float(vals.min()))
                lead_max = max(lead_max, float(vals.max()))
            else:
                other_max = max(other_max, float(np.abs(vals).max()))

    worst_mismatch = 0.0
    for i in range(1, graph.n_vertices + 1):
        incident = sorted(edge_indices_at_vertex(graph, i))
        if len(incident) < 2:
            continue
        # local coordinate of vertex i on each incident edge
        coords = [0.0 if graph.edges[j - 1][0] == i else 1.0 for j in incident]
        for l in range(d + 1):
            traces = np.array([
                np.broadcast_to(spec.coefficients[j - 1][l](ts, np.full_like(ts, cx)), ts.shape)
                for j, cx in zip(incident, coords)
            ])
            worst_mismatch = max(worst_mismatch, float(np.ptp(traces, axis=0).max()))

    checks = (
        Check("leading_lower_bound", lead_min >= spec.lower_bound, lead_min, spec.lower_bound),
        Check("leading_upper_bound", lead_max <= spec.upper_bound, lead_max, spec.upper_bound),
        Check("coefficient_magnitude", other_max <= spec.upper_bound, other_max, spec.upper_bound),
        Check("vertex_compatibility", worst_mismatch <= 1e-12, worst_mismatch, 1e-12),
    )
    return ValidationReport(checks, context={
        "horizon": horizon, "n_time": n_time, "n_space": n_space})


# ---------------------------------------------------------------------------
# Allen-Cahn specialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AllenCahnSpec:
    """Double-well reaction data: common drift -eta^3 + beta^2 eta after
    absorbing per-edge well differences into the potential."""

    betas: np.ndarray          # per-edge well parameters
    beta: float                # max over edges
    rho: np.ndarray            # beta^2 - beta_j^2 >= 0
    drift: DriftSpec
    fields: EdgeFieldSet       # base fields with potential shifted by rho


def well_density(eta, beta: float):
    """Double-well density H(eta) = (eta^2 - beta^2)^2 / 4."""
    return 0.25 * (np.asarray(eta) ** 2 - beta ** 2) ** 2


def allen_cahn_system(betas, base_fields: EdgeFieldSet) -> AllenCahnSpec:
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    if betas.shape == (1,):
        betas = np.full(base_fields.n_edges, betas[0])
    if betas.shape != (base_fields.n_edges,):
        raise DimensionMismatch(f"need one beta per edge ({base_fields.n_edges})")
    if not np.all(betas > 0.0):
        raise NonpositiveBeta(f"well parameters must be positive, got {betas}")
    beta = float(betas.max())
    rho = beta ** 2 - betas ** 2
    drift = polynomial_drift(
        degree=1,
        coefficients=[0.0, beta ** 2, 0.0, 1.0],
        n_edges=base_fields.n_edges,
        lower_bound=1.0,
        upper_bound=max(1.0, beta ** 2),
    )
    return AllenCahnSpec(betas, beta, rho, drift, shifted_fields(base_fields, rho))


# ---------------------------------------------------------------------------
# noise coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffusionSpec:
    """Per-edge noise coefficients g_j(t, x, eta) with declared regularity.

    ``lipschitz`` maps a radius r to the declared local Lipschitz constant in
    eta on |eta| <= r; ``linear_growth`` is the declared constant c with
    |g| <= c*(1+|eta|).  Both are metadata checked by sampling, not proved.
    """

    functions: tuple
    lipschitz: tuple = ()          # pairs (radius, constant)
    linear_growth: float | None = None
    constant_values: tuple = ()    # [edge] float or None, detected constants; () if unknown

    @property
    def n_edges(self) -> int:
        return len(self.functions)


def build_diffusion(n_edges: int, function, lipschitz=(), linear_growth=None) -> DiffusionSpec:
    specs = _per_edge(function, n_edges)
    fns = tuple(as_edge_function(v, variables=("t", "x", "u")) for v in specs)
    lip = tuple((float(r), float(c)) for r, c in lipschitz)
    growth = None if linear_growth is None else float(linear_growth)
    return DiffusionSpec(fns, lip, growth, tuple(_constant_of(v) for v in specs))


def eval_diffusion(spec: DiffusionSpec, t, x, edge: int, value):
    """Evaluate g on an edge (1-based index)."""
    return spec.functions[edge - 1](t, x, value)


def _worst_on_lattice(spec: DiffusionSpec, ts, xs, etas, measure) -> float:
    """max(0, largest ``measure(g_j values, eta grid)``) on the (t, x, eta) lattice."""
    tg, xg, eg = np.meshgrid(ts, xs, etas, indexing="ij")
    worst = 0.0
    for g in spec.functions:
        vals = np.broadcast_to(g(tg, xg, eg), tg.shape)
        worst = max(worst, float(measure(vals, eg).max()))
    return worst


def validate_diffusion(spec: DiffusionSpec, horizon: float = 1.0, n_time: int = 9,
                       n_space: int = 17, n_value: int = 41) -> ValidationReport:
    """Lattice scan of the declared Lipschitz radii and the growth bound.

    Finite-difference slopes in eta are compared against each declared
    radius constant; the growth bound is checked on the largest radius (or
    |eta| <= 10 if no radii are declared).
    """
    ts = np.linspace(0.0, horizon, n_time)
    xs = np.linspace(0.0, 1.0, n_space)
    checks = []
    for radius, constant in spec.lipschitz:
        etas = np.linspace(-radius, radius, n_value)
        worst = _worst_on_lattice(spec, ts, xs, etas, lambda vals, eg: (
            np.abs(np.diff(vals, axis=2)) / np.abs(np.diff(etas))))
        tol = constant * (1.0 + 1e-9) + 1e-12
        checks.append(Check(f"lipschitz_radius_{radius:g}", worst <= tol, worst, constant))
    if spec.linear_growth is not None:
        radius = max([r for r, _ in spec.lipschitz], default=10.0)
        etas = np.linspace(-radius, radius, n_value)
        worst = _worst_on_lattice(spec, ts, xs, etas,
                                  lambda vals, eg: np.abs(vals) / (1.0 + np.abs(eg)))
        tol = spec.linear_growth * (1.0 + 1e-9) + 1e-12
        checks.append(Check("linear_growth", worst <= tol, worst, spec.linear_growth))
    if not checks:
        checks.append(Check("no_declared_bounds", True, 0.0, 0.0, mandatory=False,
                            note="no Lipschitz or growth metadata declared; nothing to scan"))
    return ValidationReport(tuple(checks), context={
        "horizon": horizon, "n_time": n_time, "n_space": n_space, "n_value": n_value})
