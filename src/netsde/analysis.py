"""Monte Carlo orchestration and statistical estimators.

Everything here is deterministic given (configuration, base seed): each
trajectory derives its noise stream from counter-based keys, trajectories
run serially in id order through ``Stepper.march``, and every reduction
follows that order.

The Hölder estimator and the strong-order ladder hold one trajectory at a
time: the Hölder fit consumes a generator of marched paths, and the ladder
keeps only final states.  ``run_trajectories`` and ``monte_carlo`` return or
stack every trajectory's snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import DiscreteSystem, bind_matvec
from .errors import ConfigurationError, DimensionMismatch, InsufficientResolution, LadderTooShort
from .fields import well_density
from .mesh import edge_integral
from .noise import coupled_sampler
from .sde import Problem, Stepper, TrajectorySet, whole_steps


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
    stepper = Stepper(problem)
    return [stepper.march(i) for i in trajectory_ids]


def _check_trajectory_count(n_trajectories, least: int) -> None:
    """Raise ConfigurationError naming the count unless it is an integer, a
    numpy one included and a bool not, of at least ``least`` (1 or 2)."""
    if isinstance(n_trajectories, bool) or not isinstance(n_trajectories, (int, np.integer)):
        raise ConfigurationError(
            f"the trajectory count must be an integer, got {n_trajectories!r}")
    if n_trajectories < least:
        need = "one trajectory" if least == 1 else "two trajectories"
        raise ConfigurationError(f"need at least {need}, got {n_trajectories}")


def monte_carlo(problem: Problem, n_trajectories: int, q: float = 4.0,
                quantiles=(0.5, 0.9)) -> EnsembleStats:
    """Ensemble statistics: pointwise mean/variance and path sup-norm moments."""
    _check_trajectory_count(n_trajectories, 2)
    if not 0.0 < q < math.inf:  # also false for NaN
        raise ConfigurationError(f"the sup-norm moment q must be finite and positive, got {q}")
    bad = [p for p in quantiles if not 0.0 <= p <= 1.0]
    if bad:
        raise ConfigurationError(f"sup-norm quantiles must lie in [0, 1], got {bad}")
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
        n_trajectories=int(n_trajectories),
    )


# ---------------------------------------------------------------------------
# temporal Hölder exponent
# ---------------------------------------------------------------------------

def _ols_loglog(x, y, what: str):
    if not np.all(y > 0.0):  # NaN is not positive either
        k = int(np.argmin(y > 0.0))
        raise ConfigurationError(f"the mean at {what} {float(x[k])!r} is {float(y[k])!r}; "
                                 "a log-log fit needs positive means")
    # the closed-form two-parameter fit about the means, from numpy sums alone
    lx, ly = np.log(x), np.log(y)
    n = lx.size
    dx, dy = lx - lx.mean(), ly - ly.mean()
    sxx = float(np.sum(dx * dx))
    slope = float(np.sum(dx * dy)) / sxx
    residuals = dy - slope * dx
    ss_res = float(np.sum(residuals * residuals))
    ss_tot = float(np.sum(dy * dy))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    se = math.sqrt(ss_res / (n - 2) / sxx) if n > 2 else float("nan")
    return slope, 1.96 * se, r2, residuals


def _lag_grid(n_snap: int, spacing: float, lags, burn_fraction: float):
    """Check at least 4 increasing lags, whole multiples of ``spacing``, against
    the burn-in of ``n_snap`` snapshots; return lags, lag snapshots and start."""
    lags = np.asarray(lags, dtype=float)
    if lags.size < 4:
        raise LadderTooShort(f"need at least 4 lags, got {lags.size}")
    if np.any(np.diff(lags) <= 0.0):
        raise ConfigurationError("lags must be strictly increasing")
    if not 0.0 <= burn_fraction < 1.0:
        raise ConfigurationError(f"burn_fraction must lie in [0, 1), got {burn_fraction}")
    steps = whole_steps(lags, spacing, "lag / snapshot spacing", InsufficientResolution)
    start = int(math.ceil(burn_fraction * (n_snap - 1)))
    if start + steps[-1] >= n_snap:
        raise InsufficientResolution(
            f"burn-in {start} plus the largest lag ({steps[-1]} snapshots) "
            f"exceeds the {n_snap} available snapshots")
    return lags, steps, start


def holder_exponent_from_paths(times, paths, lags, norm_fn=None,
                               burn_fraction: float = 0.25) -> ExponentEstimate:
    """Regress log mean increment norms against log lag over sampled paths.

    ``paths`` is any nonempty iterable of (n_snap, d) arrays sharing the
    uniform ``times``, with d taken from the first path; any other shape
    raises DimensionMismatch when that path arrives.  It is consumed once,
    one path at a time, and each path is dropped before the next is asked
    for, so a generator that marches trajectories on demand holds one at a
    time.  Every lag must be a whole multiple of the snapshot spacing.
    Increment norms are averaged over interior start times (after a burn-in
    prefix) and over paths, then fitted by ordinary least squares.
    """
    times = np.asarray(times, dtype=float)
    n_snap = times.size
    if n_snap < 2:
        raise InsufficientResolution(f"need at least 2 snapshots, got {n_snap}")
    spacing = float(times[1] - times[0])
    if not np.all(np.abs(np.diff(times) - spacing) <= 1e-9 * max(spacing, 1.0)):  # NaN fails
        raise ConfigurationError("snapshot times must be uniformly spaced")
    lags, steps, start = _lag_grid(n_snap, spacing, lags, burn_fraction)
    if norm_fn is None:
        norm_fn = lambda diffs: np.linalg.norm(diffs, axis=1)

    sums = np.zeros(lags.size)
    counts = np.zeros(lags.size)
    n_paths, d, buffer = 0, None, None
    for path in paths:
        path = np.asarray(path, dtype=float)
        if d is None:
            # a first path that is not 2-D fixes no d, and its shape cannot match
            d = path.shape[1] if path.ndim == 2 else "d"
        if path.shape != (n_snap, d):
            raise DimensionMismatch(
                f"path {n_paths} has shape {path.shape}, expected ({n_snap}, {d})")
        if buffer is None:
            # one buffer for every increment array; the smallest lag has the most rows
            buffer = np.empty((n_snap - start - steps[0], d))
        for i, k in enumerate(steps):
            diffs = np.subtract(path[start + k:], path[start:-k],
                                out=buffer[:n_snap - start - k])
            sums[i] += float(norm_fn(diffs).sum())
            counts[i] += diffs.shape[0]
        n_paths += 1
        del path  # before the next path is made
    if n_paths == 0:
        raise ConfigurationError("need at least one path, got 0")
    means = sums / counts
    slope, half_width, r2, residuals = _ols_loglog(lags, means, "lag")
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
    _check_trajectory_count(n_trajectories, 1)
    if norm == "E2":
        norm_fn = e2_norm_rows(problem.system)
    elif norm == "Einf":
        norm_fn = einf_norm_rows
    else:
        raise ConfigurationError(f"unknown norm {norm!r}; choose E2 or Einf")
    cfg = problem.config
    # the lags' lengths in time steps pick the snapshot stride
    _, steps, _ = _lag_grid(cfg.n_steps + 1, float(cfg.dt), lags, burn_fraction)
    if steps[0] < 4:
        raise InsufficientResolution(
            f"smallest lag {lags[0]:g} must be at least 4x the time step {cfg.dt:g}")
    stride = int(np.gcd.reduce(steps))
    if cfg.n_steps % stride:
        raise InsufficientResolution(
            f"the snapshot stride of {stride} steps (the gcd of the lags' steps) does not "
            f"divide the {cfg.n_steps} steps to t_end; make t_end a multiple of {stride} steps")
    run_problem = problem.with_config(snapshot_stride=stride)
    times = run_problem.config.snapshot_steps * float(cfg.dt)
    # the fit checks its snapshot grid before it asks for the first path, and
    # each trajectory is marched only when the fit asks for it
    stepper = Stepper(run_problem)
    paths = (stepper.march(i).states for i in range(n_trajectories))
    return holder_exponent_from_paths(times, paths, lags, norm_fn, burn_fraction)


# ---------------------------------------------------------------------------
# strong self-convergence in the time step
# ---------------------------------------------------------------------------

def estimate_strong_order(problem: Problem, dt_ladder, n_trajectories: int,
                          norm: str = "E2") -> ExponentEstimate:
    """Coupled-noise self-convergence order at the final time.

    The finest ladder entry defines the reference path; every coarser level
    re-runs the same trajectory with increments aggregated from the
    reference stream (decoupled noise would make levels independent and is
    rejected).  The regression is over the coarser levels only.  Each
    trajectory's fine stream is drawn and applied once: the reference level's
    sampler and every coarse level's ``coupled_sampler`` share one store of
    applied blocks, freed after the trajectory and capped at
    ``LADDER_STORE_BYTES`` (64 MiB); each level draws the blocks past the cap
    again.
    """
    _check_trajectory_count(n_trajectories, 1)
    ladder = np.sort(np.asarray(dt_ladder, dtype=float))
    if ladder.size < 4:
        raise LadderTooShort(
            f"need at least 4 ladder entries (reference plus 3 levels), got {ladder.size}")
    # anything but whole multiples (>= 2) would decouple the noise between levels
    ratios = whole_steps(ladder[1:], float(ladder[0]), "ladder step / finest step")
    if np.any(ratios < 2):
        raise ConfigurationError(
            f"every ladder step must be at least twice the finest step, got {ladder.tolist()}")
    # each level's SolverConfig checks its dt against t_end before any march
    n_steps = [problem.with_config(dt=float(dt)).config.n_steps for dt in ladder]

    system = problem.system
    if norm == "E2":
        norm_fn = system.e2_norm
    elif norm == "Einf":
        norm_fn = system.einf_norm
    else:
        raise ConfigurationError(f"unknown norm {norm!r}; choose E2 or Einf")

    # one stepper per level, built once every level's grid has passed; each
    # keeps only its initial and final states
    levels = [Stepper(problem.with_config(dt=float(dt), snapshot_stride=n))
              for dt, n in zip(ladder, n_steps)]

    all_errs = []
    for traj_id in range(n_trajectories):
        finals, store = [], {}
        for level, ratio, steps in zip(levels, [1, *ratios], n_steps):
            # at ratio 1 the reference level marches the fine sampler itself
            sampler = (coupled_sampler(problem.noise, traj_id, ratio, steps, level.dt, store)
                       if problem.noise is not None else None)
            finals.append(level.march(traj_id, sampler).final_state())
        all_errs.append([norm_fn(u - finals[0]) for u in finals[1:]])
    means = np.mean(np.array(all_errs), axis=0)
    slope, half_width, r2, residuals = _ols_loglog(ladder[1:], means, "dt")
    return ExponentEstimate(slope, half_width, r2, ladder[1:], means, residuals)


# ---------------------------------------------------------------------------
# vertex flux residual and the double-well energy
# ---------------------------------------------------------------------------

def vertex_residual(trajectory: TrajectorySet, system: DiscreteSystem) -> np.ndarray:
    """Worst Kirchhoff-law violation per snapshot, from one-sided gradients.

    For each vertex the residual adds the coupling term M q to the signed
    weighted boundary fluxes; edge derivatives at the endpoints use the
    one-sided piecewise-linear slopes of the stored states.  The fluxes go
    through the paper's weighted incidence matrices Phi+_w and Phi-_w, whose
    column j holds mu_j c_j(0) at edge j's start and mu_j c_j(1) at its end.
    """
    mesh, fields = system.mesh, system.fields
    ends, edges = mesh.graph.edge_array(), np.arange(mesh.n_edges)
    w_plus = np.zeros((mesh.graph.n_vertices, mesh.n_edges))
    w_minus = np.zeros_like(w_plus)
    w_plus[ends[:, 0], edges] = fields.weights * [float(c(0.0)) for c in fields.conductance]
    w_minus[ends[:, 1], edges] = fields.weights * [float(c(1.0)) for c in fields.conductance]
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
