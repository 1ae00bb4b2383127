"""Spectrum and action of the discrete evolution semigroup.

The semi-discrete flow is ``G du/dt = A_form u``; its generator in nodal
coordinates is ``A_h = G^{-1} A_form``.  At desk scale the semigroup is
applied exactly through the full generalized eigendecomposition of the
symmetric pencil ``A_form v = lambda G v``, which removes time-stepping
error from every qualitative property check.

Positivity and sup-norm contractivity are certified on the row-sum lumped
propagator: the consistent-mass propagator is not entrywise nonnegative
even for the scalar heat equation at small times, and its sup-norm can
exceed 1 marginally on coarse meshes (a discretization artifact; reports
label which propagator was tested).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import DiscreteSystem
from .errors import ConfigurationError, FactorizationFailure
from .report import Check, ValidationReport
from .trajectory import TrajectorySet

DENSE_LIMIT = 5000  # above this many dofs use iterative shift-invert


@dataclass(frozen=True)
class SpectralData:
    """Eigenpairs of the generalized problem, eigenvalues descending.

    Eigenvectors are G-orthonormal columns: ``V.T @ G @ V = I``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def count(self) -> int:
        return self.eigenvalues.size


def generalized_eigs(system: DiscreteSystem, count: int | None = None) -> SpectralData:
    """Solve ``A_form v = lambda G v`` for the ``count`` largest eigenvalues.

    The pencil is symmetric with positive definite mass, so eigenvalues are
    real; they are nonpositive whenever the vertex matrix satisfies the
    basic profile.  Dense decomposition up to DENSE_LIMIT dofs, iterative
    shift-invert above; the full decomposition above DENSE_LIMIT raises
    ConfigurationError instead of forming dense ndof x ndof arrays.
    """
    ndof = system.ndof
    if count is None:
        count = ndof
    if count > ndof:
        raise ValueError(f"requested {count} eigenpairs from a {ndof}-dof system")
    if count == ndof > DENSE_LIMIT:
        raise ConfigurationError(
            f"a full eigendecomposition of {ndof} dofs needs dense {ndof} x {ndof} "
            f"arrays; it is limited to DENSE_LIMIT = {DENSE_LIMIT} dofs")
    if ndof <= DENSE_LIMIT:
        try:
            values, vectors = scipy.linalg.eigh(system.form_matrix.toarray(),
                                                system.mass.toarray())
        except scipy.linalg.LinAlgError as err:
            raise FactorizationFailure(str(err)) from err
        values, vectors = values[::-1], vectors[:, ::-1]
        values, vectors = values[:count].copy(), vectors[:, :count].copy()
    else:
        try:
            # a fixed start vector: ARPACK's default is random, so repeated
            # calls would differ in the last bits
            values, vectors = spla.eigsh(system.form_matrix.tocsc(), k=count,
                                         M=system.mass.tocsc(), sigma=0.5, which="LM",
                                         v0=np.ones(ndof))
        except RuntimeError as err:
            raise FactorizationFailure(str(err)) from err
        order = np.argsort(values)[::-1]
        values, vectors = values[order], vectors[:, order]
    # deterministic sign convention: largest-magnitude component positive
    for k in range(vectors.shape[1]):
        idx = np.argmax(np.abs(vectors[:, k]))
        if vectors[idx, k] < 0:
            vectors[:, k] = -vectors[:, k]
    return SpectralData(values, vectors)


def semigroup_apply(system: DiscreteSystem, t: float, state: np.ndarray,
                    spectral: SpectralData | None = None) -> np.ndarray:
    """Exact action of the discrete semigroup at time ``t >= 0``."""
    if t < 0:
        raise ValueError("the semigroup is only defined for t >= 0")
    if spectral is None or spectral.count < system.ndof:
        spectral = generalized_eigs(system)
    V = spectral.eigenvectors
    coeff = V.T @ (system.mass @ np.asarray(state, dtype=float))
    return V @ (np.exp(spectral.eigenvalues * t) * coeff)


def propagator(system: DiscreteSystem, t: float, lumped: bool = True) -> np.ndarray:
    """Dense matrix exponential of the generator in nodal coordinates."""
    A = system.form_matrix.toarray()
    if lumped:
        B = A / system.lumped_mass[:, None]
    else:
        B = np.linalg.solve(system.mass.toarray(), A)
    return scipy.linalg.expm(t * B)


# tolerances of the E2 contraction, sup-norm contraction and positivity checks
TOL_E2, TOL_INF, TOL_POS = 1e-10, 1e-8, 1e-8


def check_contraction(system: DiscreteSystem, t_grid, norm: str = "E2") -> ValidationReport:
    """Certify that the flow does not expand the requested norm.

    E2 contraction follows from the spectral bound (largest pencil
    eigenvalue <= TOL_E2); the per-time operator norms e^{lambda_1 t} are
    reported.  The sup-norm check forms dense matrix exponentials of the
    lumped-mass propagator and measures the largest absolute row sum; the
    consistent-mass excess is reported as a non-mandatory check since it
    may stay positive on coarse meshes.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    checks = []
    if norm == "E2":
        spectral = generalized_eigs(system, count=min(system.ndof, 6))
        lam1 = float(spectral.eigenvalues[0])
        scale = 1.0 + float(np.abs(spectral.eigenvalues).max())
        checks.append(Check("largest_eigenvalue", lam1 <= TOL_E2 * scale, lam1, TOL_E2 * scale))
        for t in t_grid:
            growth = float(np.exp(lam1 * t))
            checks.append(Check(f"e2_operator_norm_t_{t:g}", growth <= 1.0 + TOL_E2,
                                growth, 1.0 + TOL_E2))
        context = {"norm": "E2"}
    elif norm == "Einf":
        for t in t_grid:
            lump = float(np.abs(propagator(system, t, lumped=True)).sum(axis=1).max())
            checks.append(Check(f"einf_operator_norm_t_{t:g}", lump <= 1.0 + TOL_INF,
                                lump, 1.0 + TOL_INF))
            cons = float(np.abs(propagator(system, t, lumped=False)).sum(axis=1).max())
            checks.append(Check(f"einf_consistent_excess_t_{t:g}", True,
                                max(cons - 1.0, 0.0), TOL_INF, mandatory=False,
                                note="consistent-mass excess, informational on coarse meshes"))
        context = {"norm": "Einf", "propagator": "lumped"}
    else:
        raise ValueError(f"unknown norm {norm!r}")
    return ValidationReport(tuple(checks), context=context)


def check_positivity(system: DiscreteSystem, t_grid) -> ValidationReport:
    """Entrywise nonnegativity of the lumped-mass propagator on a time grid."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    checks = []
    for t in t_grid:
        min_entry = float(propagator(system, t, lumped=True).min())
        checks.append(Check(f"min_entry_t_{t:g}", min_entry >= -TOL_POS, min_entry, -TOL_POS))
    return ValidationReport(tuple(checks), context={"propagator": "lumped"})


def solve_heat(system: DiscreteSystem, initial: np.ndarray, horizon: float, dt: float,
               method: str = "backward_euler", snapshot_stride: int = 1) -> TrajectorySet:
    """Deterministic reference solver for the linear flow.

    ``backward_euler`` marches ``(G - dt*A_form) u+ = G u`` with
    ``sde.simulate_path``: the plain semi-implicit scheme without reaction or
    noise.  ``spectral`` evaluates the exact semigroup at the same snapshot
    times.  Both raise ConfigurationError unless ``horizon`` is a positive
    integer multiple of ``dt``.
    """
    from .sde import Problem, SolverConfig, simulate_path  # sde imports this module

    config = SolverConfig(dt, horizon, "semi_implicit_plain", snapshot_stride,
                          blowup_guard=np.inf)
    if method == "backward_euler":
        return replace(simulate_path(Problem(system, config, initial)), scheme="backward_euler")
    if method != "spectral":
        raise ValueError(f"unknown method {method!r}")
    n_steps = config.n_steps
    spectral = generalized_eigs(system)
    steps = list(range(0, n_steps + 1, snapshot_stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    times = dt * np.asarray(steps, dtype=float)
    states = np.array([semigroup_apply(system, t, initial, spectral) for t in times])
    sup = float(np.abs(states).max())
    return TrajectorySet(times, states, "spectral", sup)
