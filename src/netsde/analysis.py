"""Monte Carlo orchestration and statistical estimators.

Everything here is deterministic given (configuration, base seed): each
trajectory derives its noise stream from counter-based keys, trajectories
run serially in id order through ``simulate_path``, and every reduction
follows that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import DiscreteSystem, bind_matvec
from .errors import ConfigurationError, InsufficientResolution, LadderTooShort
from .graph import weighted_incidence
from .fields import well_density
from .mesh import edge_integral
from .noise import coupled_sampler
from .sde import Problem, Stepper, simulate_path
from .trajectory import TrajectorySet


@dataclass(frozen=True)
class ExponentEstimate:
    """A fitted log-log slope with OLS diagnostics."""

    estimate: float
    half_width: float          # 1.96 * standard error of the slope
    r_squared: float
    ladder: np.ndarray         # abscissae (lags or time steps)
    values: np.ndarray         # mean increments or errors per ladder point
    residuals: np.ndarray


@dataclass(frozen=True)
class EnsembleStats:
    times: np.ndarray
    mean: np.ndarray           # (n_snap, ndof) pointwise ensemble mean
    variance: np.ndarray       # (n_snap, ndof) pointwise ensemble variance
    sup_moment: float          # E[ sup_t ||X(t)||_inf ^ q ]
    q: float
    sup_quantiles: dict
    n_trajectories: int


def run_trajectories(problem: Problem, trajectory_ids) -> list[TrajectorySet]:
    """Simulate the given trajectory ids serially, in the order given.

    One prefactorized stepper serves every trajectory.
    """
    cfg = problem.config
    stepper = Stepper(problem.system, cfg.dt, cfg.scheme, problem.drift, problem.diffusion)
    return [simulate_path(problem, i, stepper) for i in trajectory_ids]


def monte_carlo(problem: Problem, n_trajectories: int, q: float = 4.0,
                quantiles=(0.5, 0.9)) -> EnsembleStats:
    """Ensemble statistics: pointwise mean/variance and path sup-norm moments."""
    if n_trajectories < 2:
        raise ConfigurationError("need at least two trajectories for ensemble statistics")
    trajs = run_trajectories(problem, range(n_trajectories))
    stack = np.stack([t.states for t in trajs])
    sups = np.array([t.sup_norm for t in trajs])
    return EnsembleStats(
        times=trajs[0].times,
        mean=stack.mean(axis=0),
        variance=stack.var(axis=0),
        sup_moment=float(np.mean(sups ** q)),
        q=float(q),
        sup_quantiles={float(p): float(np.quantile(sups, p)) for p in quantiles},
        n_trajectories=n_trajectories,
    )


# ---------------------------------------------------------------------------
# temporal Hölder exponent
# ---------------------------------------------------------------------------

def _ols_loglog(x, y):
    lx, ly = np.log(x), np.log(y)
    n = lx.size
    A = np.vstack([lx, np.ones(n)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    fitted = A @ coef
    residuals = ly - fitted
    ss_res = float(residuals @ residuals)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if n > 2:
        sigma2 = ss_res / (n - 2)
        se = math.sqrt(sigma2 / float(np.sum((lx - lx.mean()) ** 2)))
    else:
        se = float("nan")
    return float(coef[0]), 1.96 * se, r2, residuals


def _validate_lags(lags):
    lags = np.asarray(lags, dtype=float)
    if lags.size < 4:
        raise LadderTooShort(f"need at least 4 lags, got {lags.size}")
    if np.any(np.diff(lags) <= 0.0):
        raise ConfigurationError("lags must be strictly increasing")
    return lags


def holder_exponent_from_paths(times, paths, lags, norm_fn=None,
                               burn_fraction: float = 0.25) -> ExponentEstimate:
    """Regress log mean increment norms against log lag over sampled paths.

    ``paths`` is a sequence of (n_snap, d) arrays sharing the uniform
    ``times``; every lag must be an integer multiple of the snapshot
    spacing.  Increment norms are averaged over interior start times (after
    a burn-in prefix) and over paths, then fitted by ordinary least squares.
    """
    lags = _validate_lags(lags)
    times = np.asarray(times, dtype=float)
    spacing = float(times[1] - times[0])
    if np.max(np.abs(np.diff(times) - spacing)) > 1e-9 * max(spacing, 1.0):
        raise ConfigurationError("snapshot times must be uniformly spaced")
    steps = np.round(lags / spacing).astype(int)
    if np.any(np.abs(steps * spacing - lags) > 1e-6 * lags) or np.any(steps < 1):
        raise InsufficientResolution(
            f"lags {lags} are not integer multiples of the snapshot spacing {spacing:g}")
    n_snap = times.size
    start = int(math.ceil(burn_fraction * (n_snap - 1)))
    if start + steps[-1] >= n_snap:
        raise InsufficientResolution(
            f"burn-in {start} plus the largest lag ({steps[-1]} snapshots) "
            f"exceeds the {n_snap} available snapshots")
    if norm_fn is None:
        norm_fn = lambda diffs: np.linalg.norm(diffs, axis=1)

    sums = np.zeros(lags.size)
    counts = np.zeros(lags.size)
    buffer = None
    for path in paths:
        path = np.asarray(path, dtype=float)
        if buffer is None:
            # one buffer for every increment array; the smallest lag has the
            # most rows
            buffer = np.empty((n_snap - start - steps[0],) + path.shape[1:])
        for i, k in enumerate(steps):
            diffs = np.subtract(path[start + k:], path[start:-k],
                                out=buffer[:n_snap - start - k])
            sums[i] += float(norm_fn(np.atleast_2d(diffs)).sum())
            counts[i] += diffs.shape[0]
    means = sums / counts
    slope, half_width, r2, residuals = _ols_loglog(lags, means)
    return ExponentEstimate(slope, half_width, r2, lags, means, residuals)


def e2_norm_rows(system: DiscreteSystem):
    """Row-wise weighted L2 norm function for increment matrices.

    The products ``G @ rows.T`` of every call share one buffer, grown when a
    call has more rows than any before it; the CSR kernel sums them in the
    order ``G @ rows.T`` does.
    """
    matvec = bind_matvec(system.mass)
    buffer = np.empty(0)

    def norm(rows):
        nonlocal buffer
        rows = np.atleast_2d(rows)
        if buffer.size < rows.size:
            buffer = np.empty(rows.size)
        weighted = matvec(rows.T, out=buffer[:rows.size].reshape(rows.shape[::-1]))
        return np.sqrt(np.einsum("ij,ji->i", rows, weighted))

    return norm


def einf_norm_rows(rows):
    return np.abs(np.atleast_2d(rows)).max(axis=1)


def estimate_holder_exponent(problem: Problem, lags, n_trajectories: int,
                             norm: str = "E2", burn_fraction: float = 0.25) -> ExponentEstimate:
    """Empirical temporal Hölder exponent of the state in E2 or sup norm."""
    if n_trajectories < 1:
        raise ConfigurationError(f"need at least one trajectory, got {n_trajectories}")
    if norm == "E2":
        norm_fn = e2_norm_rows(problem.system)
    elif norm == "Einf":
        norm_fn = einf_norm_rows
    else:
        raise ValueError(f"unknown norm {norm!r}")
    lags = _validate_lags(lags)
    dt = problem.config.dt
    if lags[0] < 4.0 * dt:
        raise InsufficientResolution(
            f"smallest lag {lags[0]:g} must be at least 4x the time step {dt:g}")
    steps = np.round(lags / dt).astype(int)
    if np.any(np.abs(steps * dt - lags) > 1e-6 * lags):
        raise InsufficientResolution("every lag must be an integer multiple of dt")
    stride = int(np.gcd.reduce(steps))
    run_problem = problem.with_config(snapshot_stride=stride)
    if run_problem.config.n_steps % stride != 0:
        raise ConfigurationError("snapshot stride must divide the step count")
    trajs = run_trajectories(run_problem, range(n_trajectories))
    return holder_exponent_from_paths(trajs[0].times, [t.states for t in trajs],
                                      lags, norm_fn, burn_fraction)


# ---------------------------------------------------------------------------
# strong self-convergence in the time step
# ---------------------------------------------------------------------------

def estimate_strong_order(problem: Problem, dt_ladder, n_trajectories: int,
                          norm: str = "E2") -> ExponentEstimate:
    """Coupled-noise self-convergence order at the final time.

    The finest ladder entry defines the reference path; every coarser level
    re-runs the same trajectory with increments aggregated from the
    reference stream (decoupled noise would make levels independent and is
    rejected).  The regression is over the coarser levels only.
    """
    if n_trajectories < 1:
        raise ConfigurationError(f"need at least one trajectory, got {n_trajectories}")
    ladder = np.sort(np.asarray(dt_ladder, dtype=float))
    if ladder.size < 4:
        raise LadderTooShort(
            f"need at least 4 ladder entries (reference plus 3 levels), got {ladder.size}")
    dt_ref = float(ladder[0])
    ratios = np.round(ladder[1:] / dt_ref).astype(int)
    if np.any(np.abs(ratios * dt_ref - ladder[1:]) > 1e-9 * ladder[1:]) or np.any(ratios < 2):
        raise ConfigurationError(
            "every ladder step must be an integer multiple (>= 2) of the finest step; "
            "anything else would decouple the noise between levels")
    # each level's SolverConfig checks its dt against t_end before any march
    levels = [problem.with_config(dt=float(dt)) for dt in ladder]
    levels = [level.with_config(snapshot_stride=level.config.n_steps) for level in levels]

    system = problem.system
    if norm == "E2":
        norm_fn = system.e2_norm
    elif norm == "Einf":
        norm_fn = system.einf_norm
    else:
        raise ValueError(f"unknown norm {norm!r}")

    # one set-up per system: the levels differ only in their dt-dependent part
    base = Stepper(system, dt_ref, problem.config.scheme, problem.drift, problem.diffusion)
    steppers = [base] + [base.with_dt(level.config.dt) for level in levels[1:]]

    all_errs = []
    for traj_id in range(n_trajectories):
        finals = []
        for level, stepper, ratio in zip(levels, steppers, [1, *ratios]):
            # the reference level draws the trajectory's own fine stream
            sampler = (coupled_sampler(problem.noise, traj_id, ratio)
                       if ratio > 1 and problem.noise is not None else None)
            finals.append(simulate_path(level, traj_id, stepper, sampler).final_state())
        all_errs.append([norm_fn(u - finals[0]) for u in finals[1:]])
    means = np.mean(np.array(all_errs), axis=0)
    slope, half_width, r2, residuals = _ols_loglog(ladder[1:], means)
    return ExponentEstimate(slope, half_width, r2, ladder[1:], means, residuals)


# ---------------------------------------------------------------------------
# vertex flux residual and the double-well energy
# ---------------------------------------------------------------------------

def vertex_residual(trajectory: TrajectorySet, system: DiscreteSystem) -> np.ndarray:
    """Worst Kirchhoff-law violation per snapshot, from one-sided gradients.

    For each vertex the residual adds the coupling term M q to the signed
    weighted boundary fluxes; edge derivatives at the endpoints use the
    one-sided piecewise-linear slopes of the stored states.
    """
    mesh = system.mesh
    w_plus, w_minus = weighted_incidence(mesh.graph, system.fields.weights,
                                         system.fields.conductance_endpoints())
    states = np.atleast_2d(trajectory.states)
    dofs = mesh.edge_dofs
    d_start = (states[:, dofs[:, 1]] - states[:, dofs[:, 0]]) / mesh.h
    d_end = (states[:, dofs[:, -1]] - states[:, dofs[:, -2]]) / mesh.h
    residual = (states[:, mesh.vertex_dofs] @ system.vertex_matrix.entries.T
                + d_start @ w_plus.T - d_end @ w_minus.T)
    return np.abs(residual).max(axis=1)


def allen_cahn_energy(system: DiscreteSystem, beta: float, state: np.ndarray) -> float:
    """Discrete free energy: quadratic form part plus the double well.

    The quadratic part is the assembled bilinear form (with the shifted
    potential and the vertex coupling); the quartic well integral uses
    2-point Gauss quadrature of the piecewise-linear interpolant.
    """
    state = np.asarray(state, dtype=float)
    quad_part = 0.5 * float(state @ ((system.stiffness_potential + system.vertex_coupling)
                                     @ state))
    well = edge_integral(system.mesh, state, lambda vals: well_density(vals, beta),
                         system.fields.weights)
    return quad_part + well
