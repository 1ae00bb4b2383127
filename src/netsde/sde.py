"""Sample paths of the stochastic reaction-diffusion system.

One step of the default linear-implicit scheme solves

    (G - dt*A_form) u+ = G (u + dt * F_tamed(t, u)) + Gamma(t, u) * dW

with the reaction term tamed by its sup norm, ``F_tamed = F / (1 +
dt*max|F|)``, and the noise coefficient acting diagonally on nodal values
(Ito convention: both are evaluated at the left endpoint).  The plain
variant skips taming; both schemes share the solver of ``G - dt*A_form``
(``assembly.arrowhead_solver``: a tridiagonal solve of the edge interiors
and a vertex Schur complement), so the scheme is not part of a stepper's
set-up.

Every march runs through ``Stepper(problem).march``; ``simulate_path`` is
its one-trajectory form and ``solve_heat`` its deterministic backward Euler
reference, whose exact flow ``semigroup`` computes without this module.
Each trajectory derives its own noise stream from (seed, trajectory, step)
and owns its state, so its path does not depend on which others run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .assembly import DiscreteSystem, arrowhead_solver, bind_matvec
from .errors import BlowupDetected, ConfigurationError, DimensionMismatch, LinearSolveFailure
from .fields import DiffusionSpec, DriftSpec, eval_drift
from .mesh import Mesh, node_coordinates
from .noise import IncrementSampler, NoiseModel

SCHEMES = ("semi_implicit_tamed", "semi_implicit_plain")


WHOLE_TOL = 1e-9  # relative tolerance of every whole-number-of-steps rule


def whole_steps(durations, step: float, what: str, error=ConfigurationError) -> np.ndarray:
    """``durations / step`` as whole numbers >= 1 (an int array), each within
    the relative tolerance WHOLE_TOL; else ``error`` names ``what`` and the ratios."""
    ratios = np.asarray(durations, dtype=float) / step
    counts = np.round(ratios)
    if not np.all((counts >= 1) & (np.abs(counts - ratios) <= WHOLE_TOL * ratios)):
        raise error(f"{what} must be a whole number >= 1, got {ratios.tolist()}")
    return counts.astype(int)


@dataclass(frozen=True)
class SolverConfig:
    """Time grid and scheme of one march; ``n_steps`` and ``snapshot_steps``
    are computed on use, so ``dt`` can be replaced before the grid is checked."""

    dt: float
    t_end: float
    scheme: str = "semi_implicit_tamed"
    snapshot_stride: int = 1
    blowup_guard: float = 1e6

    def __post_init__(self):
        if not 0.0 < self.dt <= self.t_end < math.inf:
            raise ConfigurationError(f"need 0 < dt <= t_end, got dt={self.dt}, t_end={self.t_end}")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        stride = self.snapshot_stride
        if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
            raise ConfigurationError(f"snapshot_stride must be an integer >= 1, got {stride!r}")
        if not self.blowup_guard > 0.0:  # also false for NaN, which would disable the guard
            raise ConfigurationError(f"blowup_guard must be positive, got {self.blowup_guard}")

    @property
    def n_steps(self) -> int:
        return int(whole_steps(self.t_end, self.dt, "t_end / dt"))

    @property
    def snapshot_steps(self) -> np.ndarray:
        """The steps whose states a march keeps: 0, stride, 2*stride, ... and the last."""
        n_steps = self.n_steps
        return np.union1d(np.arange(0, n_steps, self.snapshot_stride), n_steps)


@dataclass(frozen=True)
class Problem:
    """Everything needed to march trajectories of one configured system."""

    system: DiscreteSystem
    config: SolverConfig
    initial: np.ndarray
    drift: DriftSpec | None = None
    diffusion: DiffusionSpec | None = None
    noise: NoiseModel | None = None

    def __post_init__(self):
        """Check once, before any set-up, that every part fits the system."""
        if (self.noise is None) != (self.diffusion is None):
            raise ConfigurationError(
                "noise model and diffusion coefficients must be supplied together")
        ndof, n_edges = self.system.ndof, self.system.mesh.n_edges
        initial = np.asarray(self.initial, dtype=float)
        if initial.shape != (ndof,):
            raise DimensionMismatch(
                f"initial state has shape {initial.shape}, the system has {ndof} dofs")
        finite = np.isfinite(initial)
        if not finite.all():
            raise ConfigurationError(
                f"initial state is not finite at {ndof - int(finite.sum())} of {ndof} dofs")
        for part, spec in (("drift", self.drift), ("diffusion", self.diffusion)):
            if spec is not None and spec.n_edges != n_edges:
                raise DimensionMismatch(
                    f"{part} has {spec.n_edges} edges, the system has {n_edges}")
        if self.noise is not None and self.noise.factor.shape[0] != ndof:
            raise DimensionMismatch(f"noise factor has {self.noise.factor.shape[0]} rows, "
                                    f"the system has {ndof} dofs")

    def with_config(self, **changes) -> "Problem":
        return replace(self, config=replace(self.config, **changes))


@dataclass(frozen=True)
class TrajectorySet:
    """Snapshots of one march: times and states in FEM coordinates.

    Vertex continuity holds at every snapshot by construction of the shared
    vertex dofs.  ``sup_norm`` is the maximum nodal absolute value over every
    step taken (not only the saved snapshots).
    """

    times: np.ndarray       # (n_snap,)
    states: np.ndarray      # (n_snap, ndof)
    sup_norm: float
    trajectory_id: int = 0

    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _nodal_evaluator(mesh: Mesh, rows, evaluate):
    """Nodal evaluator over dofs from per-edge rows of EdgeFunctions.

    Edges whose rows hold the same objects, expressions with the same text
    and variables (``EdgeFunction.key``), or constants with the same bits
    (0.0 and -0.0 differ), form a group.  Each step runs ``evaluate(t, x, j,
    u)`` once per group on the dofs it owns, at their coordinates x on their
    owner edges, with j its lowest 0-based edge; a group that owns every dof
    returns its value as it comes.
    """
    def key(fn):
        if fn.constant is not None:
            return float(fn.constant).hex()
        return id(fn) if fn.key is None else fn.key

    firsts = {}
    edge_group = [firsts.setdefault(tuple(map(key, row)), j) for j, row in enumerate(rows)]
    x = node_coordinates(mesh)[mesh.owner_node]
    if len(firsts) == 1:
        return lambda t, u: evaluate(t, x, 0, u)
    dof_group = np.array(edge_group)[mesh.owner_edge]
    owned = {j: np.flatnonzero(dof_group == j) for j in firsts.values()}
    groups = [(j, idx, x[idx]) for j, idx in owned.items()]

    def evaluate_groups(t, u):
        out = np.empty_like(u)
        for j, idx, x_j in groups:
            out[idx] = evaluate(t, x_j, j, u[idx])
        return out

    return evaluate_groups


def nodal_drift_evaluator(spec: DriftSpec | None, mesh: Mesh):
    """Vectorized nodal reaction term F(t, u) -> array over dofs."""
    if spec is None:
        return None
    return _nodal_evaluator(mesh, spec.coefficients,
                            lambda t, x, j, u: eval_drift(spec, t, x, j + 1, u))


def nodal_diffusion_evaluator(spec: DiffusionSpec | None, mesh: Mesh):
    """Diagonal nodal multipliers Gamma(t, u) over dofs; one constant shared
    by all edges is returned as that float (same product bits as an array)."""
    if spec is None:
        return None
    return _nodal_evaluator(mesh, [(g,) for g in spec.functions],
                            lambda t, x, j, u: spec.functions[j](t, x, u))


class Stepper:
    """The prefactorized one-step map of one Problem, and its time loop."""

    def __init__(self, problem: Problem):
        problem.config.n_steps  # an off-grid t_end raises before any set-up
        self.problem, system = problem, problem.system
        self.dt = float(problem.config.dt)
        self.scheme = problem.config.scheme
        self.drift = nodal_drift_evaluator(problem.drift, system.mesh)
        self.diffusion = nodal_diffusion_evaluator(problem.diffusion, system.mesh)
        self._mass_matvec = bind_matvec(system.mass)
        self._solve = arrowhead_solver(system.mass - self.dt * system.form_matrix, system.mesh)

    def step(self, state: np.ndarray, t: float, increment: np.ndarray | None) -> np.ndarray:
        dt = self.dt
        u = state
        if self.drift is not None:
            forcing = self.drift(t, state)
            if self.scheme != "semi_implicit_plain":
                forcing = forcing / (1.0 + dt * float(np.abs(forcing).max()))
            u = state + dt * forcing
        rhs = self._mass_matvec(u)
        if increment is not None:
            rhs += self.diffusion(t, state) * increment
        return self._solve(rhs)

    def march(self, trajectory_id: int = 0, sampler=None) -> TrajectorySet:
        """March one full trajectory of the problem and collect snapshots.

        ``sampler(step)`` supplies each step's noise increment; it defaults to
        the trajectory's own stream ``IncrementSampler(problem.noise,
        trajectory_id, dt, n_steps)``, which draws no step past the last, and
        is ignored without a noise model.  Raises LinearSolveFailure when a step
        produces non-finite values, and BlowupDetected (tagged with the
        trajectory id) when the nodal sup norm exceeds the configured guard,
        which signals scheme instability and should not occur with taming.
        """
        problem, cfg = self.problem, self.problem.config
        snapshots = cfg.snapshot_steps
        schedule, kept = snapshots.tolist(), 1
        if problem.noise is None:
            sampler = None
        elif sampler is None:
            sampler = IncrementSampler(problem.noise, trajectory_id, self.dt, schedule[-1])

        u = np.asarray(problem.initial, dtype=float)
        states = np.empty((snapshots.size,) + u.shape)
        states[0] = u
        sup = float(np.abs(u).max())
        guard = float(cfg.blowup_guard)
        for step in range(schedule[-1]):
            # numpy scalar arithmetic gives inf or NaN where a coefficient has
            # no value at t (say 1/t at t = 0); the finiteness check below reports it
            t = np.float64(step * cfg.dt)
            dW = sampler(step) if sampler is not None else None
            u = self.step(u, t, dW)
            level = float(np.abs(u).max())
            sup = max(sup, level)
            if not math.isfinite(level):
                raise LinearSolveFailure(
                    f"trajectory {trajectory_id} produced non-finite values at step {step + 1}")
            if level > guard:
                raise BlowupDetected(
                    f"trajectory {trajectory_id} exceeded guard {guard:g} at step {step + 1}",
                    trajectory_id=trajectory_id, step=step + 1)
            if step + 1 == schedule[kept]:
                states[kept] = u
                kept += 1
        return TrajectorySet(snapshots * float(cfg.dt), states, sup, trajectory_id)


def simulate_path(problem: Problem, trajectory_id: int = 0) -> TrajectorySet:
    """March one full trajectory of ``problem``: ``Stepper(problem).march``."""
    return Stepper(problem).march(trajectory_id)


def solve_heat(system: DiscreteSystem, initial: np.ndarray, horizon: float, dt: float,
               snapshot_stride: int = 1) -> TrajectorySet:
    """Backward Euler for ``G du/dt = A_form u``: the plain semi-implicit march
    without reaction or noise.  Raises ConfigurationError unless ``horizon`` is
    a whole multiple of ``dt``; the exact flow is ``semigroup_apply``."""
    config = SolverConfig(dt, horizon, "semi_implicit_plain", snapshot_stride,
                          blowup_guard=np.inf)
    return simulate_path(Problem(system, config, initial))
