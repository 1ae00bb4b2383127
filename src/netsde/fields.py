"""Per-edge coefficient data: conductances, potentials, weights, drift and
noise coefficients, and the double-well (Allen-Cahn) specialization.

Every per-edge coefficient is an ``EdgeFunction``, built by
``as_edge_function`` from a number, an expression string, a compiled
Expression, nodal samples on a uniform grid over [0,1] (linearly
interpolated) or a python callable; it knows whether it is constant.  All
evaluation helpers are vectorized over numpy arrays and pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionMismatch,
    NegativePotential,
    NonpositiveBeta,
    NonpositiveConductance,
    NonpositiveWeight,
)
from .expressions import Expression, parse_expression
from .graph import MetricGraph
from .report import Check, ValidationReport


@dataclass(frozen=True, slots=True)
class EdgeFunction:
    """A per-edge coefficient: called with its variables' values, elementwise.

    ``constant`` is the float value of a coefficient that uses none of its
    variables, else None; a constant has no ``fn`` and returns that float
    whatever its arguments, for the caller to broadcast (``float_samples``).
    ``key``, for one compiled from an expression, is its text and the
    variables it is called with: two EdgeFunctions with the same key compute
    the same values.
    """

    fn: object = None
    constant: float | None = None
    key: tuple | None = None

    def __call__(self, *args):
        return self.fn(*args) if self.constant is None else self.constant


def float_samples(fn, *args) -> np.ndarray:
    """The values of the coefficient ``fn`` at ``args`` as floats, broadcast
    to the arguments' shape."""
    shape = np.broadcast(*args).shape
    values = np.asarray(fn(*args), dtype=float)
    return values if values.shape == shape else np.broadcast_to(values, shape)


def as_edge_function(value, variables=("x",)) -> EdgeFunction:
    """An EdgeFunction of ``variables`` from a number, an expression string,
    an Expression, nodal samples or a callable.

    Nodal samples lie on a uniform grid over [0,1] and are linearly
    interpolated; they only make sense for single-variable functions of x.
    """
    if isinstance(value, EdgeFunction):
        return value
    if isinstance(value, str):
        value = parse_expression(value, variables)
    if isinstance(value, Expression):
        if value.is_constant:
            return EdgeFunction(constant=value.constant_value())
        return EdgeFunction(lambda *args: value(**dict(zip(variables, args))),
                            key=(value.text, tuple(variables)))
    if callable(value):
        return EdgeFunction(value)
    if isinstance(value, (list, tuple, np.ndarray)) and np.ndim(value) == 1:
        samples = np.asarray(value, dtype=float)
        if samples.size < 2:
            raise DimensionMismatch("nodal samples need at least two points")
        if variables != ("x",):
            raise DimensionMismatch("nodal samples are only supported for functions of x")
        grid = np.linspace(0.0, 1.0, samples.size)
        return EdgeFunction(lambda x: np.interp(x, grid, samples))
    return EdgeFunction(constant=float(value))


def edge_functions(value, m, variables=("x",)) -> tuple:
    """One EdgeFunction per edge from a shared value or a per-edge list.

    Lists of length m are read as one entry per edge; nodal sample vectors
    must therefore be numpy arrays, nested lists, or have length != m.  A
    shared value is converted once.
    """
    if isinstance(value, (list, tuple)):
        if len(value) == m:
            return tuple(as_edge_function(v, variables) for v in value)
        if not all(isinstance(v, (int, float, np.floating, np.integer)) for v in value):
            raise DimensionMismatch(f"expected one entry per edge ({m}), got {len(value)}")
        value = np.asarray(value, dtype=float)
    return (as_edge_function(value, variables),) * m


def per_edge_numbers(value, m: int, what: str) -> np.ndarray:
    """The per-edge number rule, as an (m,) float array: one number is
    shared by all m edges, and a list has one entry per edge.  Anything else
    raises DimensionMismatch naming ``what``, the edge count and the length
    given.  Signs and finiteness are the caller's to check."""
    values = np.asarray(value, dtype=float)
    if values.ndim == 0:
        return np.full(m, float(values))
    if values.shape != (m,):
        given = f"length {len(values)}" if values.ndim == 1 else f"shape {values.shape}"
        raise DimensionMismatch(f"need one {what} per edge ({m}) or one shared number, "
                                f"got {given}")
    return values


@dataclass(frozen=True)
class EdgeFieldSet:
    """Validated per-edge linear coefficients: c_j > 0, p_j >= 0, mu_j > 0."""

    conductance: tuple          # EdgeFunctions c_j(x)
    potential: tuple            # EdgeFunctions p_j(x)
    weights: np.ndarray         # mu_j

    @property
    def n_edges(self) -> int:
        return len(self.conductance)

    def checked_samples(self, x, where: str = ""):
        """Samples of every c_j and p_j at local coordinates ``x``, as two
        (m,) + x.shape arrays.  Edge by edge, raise unless the samples of c_j
        are positive, those of p_j nonnegative, and both finite."""
        c_vals = np.empty((self.n_edges,) + np.shape(x))
        p_vals = np.empty_like(c_vals)
        for j, (c, p) in enumerate(zip(self.conductance, self.potential)):
            c_vals[j], p_vals[j] = float_samples(c, x), float_samples(p, x)
            c_min, p_min = float(c_vals[j].min()), float(p_vals[j].min())
            if not c_min > 0.0:
                raise NonpositiveConductance(
                    f"conductance on edge {j + 1} reaches {c_min} <= 0{where}")
            if not p_min >= 0.0:
                raise NegativePotential(f"potential on edge {j + 1} reaches {p_min} < 0{where}")
            for name, vals in (("conductance", c_vals[j]), ("potential", p_vals[j])):
                if not np.isfinite(vals).all():
                    raise ConfigurationError(f"{name} on edge {j + 1} is not finite{where}")
        return c_vals, p_vals


def build_edge_fields(n_edges: int, conductance=1.0, potential=0.0, weights=1.0) -> EdgeFieldSet:
    """Build and validate the linear coefficient set.

    Finiteness, positivity of c_j and nonnegativity of p_j are checked on a
    uniform grid of 129 points; assembly re-checks at its quadrature points.
    """
    m = int(n_edges)
    mu = per_edge_numbers(weights, m, "weight")
    if not np.all(mu > 0.0):
        raise NonpositiveWeight(f"edge weights must be positive, got {mu}")
    if not np.isfinite(mu).all():
        raise ConfigurationError(f"edge weights must be finite, got {mu}")

    fields = EdgeFieldSet(edge_functions(conductance, m), edge_functions(potential, m), mu)
    fields.checked_samples(np.linspace(0.0, 1.0, 129))
    return fields


def shifted_fields(fields: EdgeFieldSet, shifts) -> EdgeFieldSet:
    """Return a copy with p_j replaced by p_j + shift_j (shifts >= 0); a
    constant p_j stays constant."""
    shifts = np.asarray(shifts, dtype=float)
    if shifts.shape != (fields.n_edges,):
        raise DimensionMismatch("need one potential shift per edge")
    if not np.all(shifts >= 0.0):
        raise NegativePotential(f"potential shifts must be nonnegative, got {shifts}")
    shifted = tuple(
        EdgeFunction(lambda x, p=p, s=s: p(x) + s) if p.constant is None
        else EdgeFunction(constant=p.constant + float(s))
        for p, s in zip(fields.potential, shifts)
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
    coefficients: tuple               # [edge][l] EdgeFunctions of (t, x), l = 0..2k+1
    lower_bound: float
    upper_bound: float

    @property
    def n_edges(self) -> int:
        return len(self.coefficients)

    @property
    def top_power(self) -> int:
        return 2 * self.degree + 1


def polynomial_drift(degree: int, coefficients, n_edges: int,
                     lower_bound: float = 1e-6, upper_bound: float = 1e6) -> DriftSpec:
    """Assemble a DriftSpec from per-edge (or shared) coefficients.

    ``coefficients`` is either one list of 2*degree+2 entries shared by all
    edges or a list of such lists, lowest power first; each entry is
    anything ``as_edge_function`` takes, in the variables (t, x).
    """
    k = int(degree)
    if k < 0:
        raise ConfigurationError(f"degree parameter must be nonnegative, got {k}")
    n_coeff = 2 * k + 2
    shared = not (isinstance(coefficients, (list, tuple)) and coefficients
                  and isinstance(coefficients[0], (list, tuple)))
    rows = [coefficients] if shared else coefficients
    need = f"need {n_coeff} coefficients (powers 0..{2 * k + 1}) for each of {n_edges} edges"
    if not shared and len(rows) != n_edges:
        raise DimensionMismatch(f"{need}, got {len(rows)} rows")
    for r, row in enumerate(rows):
        if not isinstance(row, (list, tuple, np.ndarray)) or len(row) != n_coeff:
            raise DimensionMismatch(f"{need}; row {r + 1} is {row!r}")
    fns = tuple(tuple(as_edge_function(v, variables=("t", "x")) for v in row) for row in rows)
    return DriftSpec(k, fns * n_edges if shared else fns, float(lower_bound), float(upper_bound))


def eval_drift(spec: DriftSpec, t, x, edge: int, value):
    """Evaluate the reaction polynomial on an edge (1-based index).

    Constant coefficients enter as floats and lower-order terms with the
    constant coefficient zero are skipped; the leading term is always
    evaluated.
    """
    row = spec.coefficients[edge - 1]
    consts = [fn.constant for fn in row]
    coeff = [fn(t, x) if c is None else c for fn, c in zip(row, consts)]
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
    edges; the report records the worst mismatch.  A NaN sample makes the
    check it enters fail and report NaN.
    """
    if spec.n_edges != graph.n_edges:
        raise DimensionMismatch(
            f"drift has {spec.n_edges} edges but the graph has {graph.n_edges}")
    ts = np.linspace(0.0, horizon, n_time)
    xs = np.linspace(0.0, 1.0, n_space)
    tg, xg = np.meshgrid(ts, xs, indexing="ij")

    d = spec.top_power
    # np.minimum / np.maximum propagate NaN, where Python's min / max drop it
    lead_min, lead_max, other_max = np.inf, -np.inf, 0.0
    for row in spec.coefficients:
        for fn in row[:d]:
            other_max = np.maximum(other_max, np.abs(float_samples(fn, tg, xg)).max())
        vals = float_samples(row[d], tg, xg)
        lead_min = np.minimum(lead_min, vals.min())
        lead_max = np.maximum(lead_max, vals.max())
    lead_min, lead_max, other_max = float(lead_min), float(lead_max), float(other_max)

    worst_mismatch = 0.0
    ends = graph.edge_array()
    for i in range(graph.n_vertices):
        incident = np.flatnonzero((ends == i).any(axis=1))
        if len(incident) < 2:
            continue
        # local coordinate of vertex i on each incident edge
        coords = np.where(ends[incident, 0] == i, 0.0, 1.0)
        for l in range(d + 1):
            traces = np.array([
                float_samples(spec.coefficients[j][l], ts, np.full_like(ts, cx))
                for j, cx in zip(incident, coords)
            ])
            worst_mismatch = np.maximum(worst_mismatch, np.ptp(traces, axis=0).max())
    worst_mismatch = float(worst_mismatch)

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
    betas = per_edge_numbers(betas, base_fields.n_edges, "beta")
    if not np.all(betas > 0.0):
        raise NonpositiveBeta(f"well parameters must be positive, got {betas}")
    if not np.isfinite(betas).all():
        raise ConfigurationError(f"well parameters must be finite, got {betas}")
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

    functions: tuple               # [edge] EdgeFunctions of (t, x, u)
    lipschitz: tuple               # pairs (radius, constant)
    linear_growth: float | None

    @property
    def n_edges(self) -> int:
        return len(self.functions)


def build_diffusion(n_edges: int, function, lipschitz=(), linear_growth=None) -> DiffusionSpec:
    """Raises ConfigurationError for a Lipschitz pair whose radius is not
    finite and positive or whose constant is not finite and nonnegative, and
    for a linear growth constant that is not finite and nonnegative."""
    fns = edge_functions(function, n_edges, variables=("t", "x", "u"))
    lip = tuple((float(r), float(c)) for r, c in lipschitz)
    for r, c in lip:
        if not (0.0 < r < np.inf and 0.0 <= c < np.inf):  # also true for NaN
            raise ConfigurationError(
                f"Lipschitz pair (radius {r}, constant {c}) needs a finite radius > 0 "
                "and a finite constant >= 0")
    growth = None if linear_growth is None else float(linear_growth)
    if growth is not None and not 0.0 <= growth < np.inf:  # also true for NaN
        raise ConfigurationError(
            f"linear growth constant {growth} needs to be finite and >= 0")
    return DiffusionSpec(fns, lip, growth)


def _worst_on_lattice(spec: DiffusionSpec, ts, xs, etas, measure) -> float:
    """max(0, largest ``measure(g_j values, eta grid)``) on the (t, x, eta)
    lattice; NaN if any measure is NaN."""
    tg, xg, eg = np.meshgrid(ts, xs, etas, indexing="ij")
    worst = 0.0
    for g in spec.functions:
        worst = np.maximum(worst, measure(float_samples(g, tg, xg, eg), eg).max())
    return float(worst)


# points of the (t, x, eta) lattice that validate_diffusion scans
N_TIME, N_SPACE, N_VALUE = 9, 17, 41


def validate_diffusion(spec: DiffusionSpec, horizon: float = 1.0) -> ValidationReport:
    """Lattice scan of the declared Lipschitz radii and the growth bound.

    Finite-difference slopes in eta are compared against each declared
    radius constant; the growth bound is checked on the largest radius (or
    |eta| <= 10 if no radii are declared).
    """
    ts = np.linspace(0.0, horizon, N_TIME)
    xs = np.linspace(0.0, 1.0, N_SPACE)
    checks = []
    for radius, constant in spec.lipschitz:
        etas = np.linspace(-radius, radius, N_VALUE)
        worst = _worst_on_lattice(spec, ts, xs, etas, lambda vals, eg: (
            np.abs(np.diff(vals, axis=2)) / np.abs(np.diff(etas))))
        tol = constant * (1.0 + 1e-9) + 1e-12
        checks.append(Check(f"lipschitz_radius_{radius:g}", worst <= tol, worst, constant))
    if spec.linear_growth is not None:
        radius = max([r for r, _ in spec.lipschitz], default=10.0)
        etas = np.linspace(-radius, radius, N_VALUE)
        worst = _worst_on_lattice(spec, ts, xs, etas,
                                  lambda vals, eg: np.abs(vals) / (1.0 + np.abs(eg)))
        tol = spec.linear_growth * (1.0 + 1e-9) + 1e-12
        checks.append(Check("linear_growth", worst <= tol, worst, spec.linear_growth))
    if not checks:
        checks.append(Check("no_declared_bounds", True, 0.0, 0.0, mandatory=False,
                            note="no Lipschitz or growth metadata declared; nothing to scan"))
    return ValidationReport(tuple(checks), context={
        "horizon": horizon, "n_time": N_TIME, "n_space": N_SPACE, "n_value": N_VALUE})
