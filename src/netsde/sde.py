"""Sample paths of the stochastic reaction-diffusion system.

One step of the default linear-implicit scheme solves

    (G - dt*A_form) u+ = G (u + dt * F_tamed(t, u)) + Gamma(t, u) * dW

with the reaction term tamed by its sup norm, ``F_tamed = F / (1 +
dt*max|F|)``, and the noise coefficient acting diagonally on nodal values
(Ito convention: both are evaluated at the left endpoint).  Every scheme
forms the same right-hand side ``rhs = G (u + dt * F) + Gamma * dW``; the
plain variant skips taming.  Only the map from ``rhs`` to the next state
differs: the implicit solve above, or for exponential Euler the exact
semigroup ``V exp(Lambda dt) V^T rhs`` through the G-orthonormal
eigendecomposition (``V^T G V = I``, so this is ``exp(dt A_h)`` applied to
``u + dt * F + G^{-1} Gamma dW``).

Every march, the deterministic ``semigroup.solve_heat`` included, runs
through ``simulate_path``.  Each trajectory derives its own noise stream
from (seed, trajectory, step) and owns its state vector, so a trajectory's
path does not depend on which others run or in what order.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import DiscreteSystem, bind_matvec
from .errors import BlowupDetected, ConfigurationError, LinearSolveFailure
from .fields import DiffusionSpec, DriftSpec, eval_diffusion, eval_drift
from .mesh import Mesh
from .noise import IncrementSampler, NoiseModel
from .semigroup import generalized_eigs
from .trajectory import TrajectorySet

SCHEMES = ("semi_implicit_tamed", "semi_implicit_plain", "exponential_euler")


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    scheme: str = "semi_implicit_tamed"
    snapshot_stride: int = 1
    blowup_guard: float = 1e6

    def __post_init__(self):
        if not 0.0 < self.dt <= self.t_end:
            raise ConfigurationError(f"need 0 < dt <= t_end, got dt={self.dt}, t_end={self.t_end}")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")

    @property
    def n_steps(self) -> int:
        steps = int(round(self.t_end / self.dt))
        if steps < 1 or abs(steps * self.dt - self.t_end) > 1e-8 * self.t_end:
            raise ConfigurationError(
                f"t_end={self.t_end} is not an integer multiple of dt={self.dt}")
        return steps


@dataclass(frozen=True)
class Problem:
    """Everything needed to march trajectories of one configured system."""

    system: DiscreteSystem
    config: SolverConfig
    initial: np.ndarray
    drift: DriftSpec | None = None
    diffusion: DiffusionSpec | None = None
    noise: NoiseModel | None = None
    config_hash: str = ""

    def with_config(self, **changes) -> "Problem":
        return replace(self, config=replace(self.config, **changes))


def _nodal_evaluator(mesh: Mesh, rows, whole, on_edge):
    """Nodal evaluator over dofs from per-edge detected constants ``rows``.

    When every edge has the same fully constant row, ``whole(t, u)`` serves
    the whole vector; else ``on_edge(t, x, j, u_j)`` runs per 0-based edge
    slice.  Vertex dofs evaluate through their representative edge; under
    vertex compatibility every incident edge gives the same value there.
    """
    if rows and None not in rows[0] and all(row == rows[0] for row in rows):
        return whole
    by_edge = [np.flatnonzero(mesh.dof_edge == j) for j in range(mesh.n_edges)]
    xs = [mesh.dof_x[idx] for idx in by_edge]

    def evaluate(t, u):
        out = np.empty_like(u)
        for j, idx in enumerate(by_edge):
            out[idx] = on_edge(t, xs[j], j, u[idx])
        return out

    return evaluate


def nodal_drift_evaluator(spec: DriftSpec | None, mesh: Mesh):
    """Vectorized nodal reaction term F(t, u) -> array over dofs."""
    if spec is None:
        return None
    return _nodal_evaluator(mesh, spec.constant_values,
                            lambda t, u: eval_drift(spec, t, None, 1, u),
                            lambda t, x, j, u: eval_drift(spec, t, x, j + 1, u))


def nodal_diffusion_evaluator(spec: DiffusionSpec | None, mesh: Mesh):
    """Diagonal nodal multipliers Gamma(t, u) over dofs; one constant shared
    by all edges is returned as that float (same product bits as an array)."""
    if spec is None:
        return None
    rows = [(c,) for c in spec.constant_values]
    return _nodal_evaluator(mesh, rows, lambda t, u: rows[0][0],
                            lambda t, x, j, u: eval_diffusion(spec, t, x, j + 1, u))


class Stepper:
    """Prefactorized one-step map for a fixed (system, dt, scheme)."""

    def __init__(self, system: DiscreteSystem, dt: float, scheme: str,
                 drift: DriftSpec | None = None, diffusion: DiffusionSpec | None = None):
        if scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {scheme!r}")
        self.system = system
        self.dt = float(dt)
        self.scheme = scheme
        self.drift = nodal_drift_evaluator(drift, system.mesh)
        self.diffusion = nodal_diffusion_evaluator(diffusion, system.mesh)
        self._mass_matvec = bind_matvec(system.mass)
        if scheme == "exponential_euler":
            self._spectral = generalized_eigs(system)
        self._set_up_dt()

    def _set_up_dt(self):
        """Set up the dt-dependent map from the right-hand side to the next
        state: the sparse factorization of ``G - dt*A_form``, or the
        spectral semigroup for exponential Euler."""
        if self.scheme == "exponential_euler":
            V = self._spectral.eigenvectors
            decay = np.exp(self._spectral.eigenvalues * self.dt)
            self._resolve = lambda rhs: V @ (decay * (V.T @ rhs))
            return
        system = self.system
        try:
            self._resolve = spla.splu((system.mass - self.dt * system.form_matrix).tocsc()).solve
        except RuntimeError as err:
            raise LinearSolveFailure(str(err)) from err

    def with_dt(self, dt: float) -> "Stepper":
        """The same map for another time step, sharing every dt-independent
        part (evaluators, the bound mass matvec, spectral data)."""
        other = copy.copy(self)
        other.dt = float(dt)
        other._set_up_dt()
        return other

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
            gamma = self.diffusion(t, state) if self.diffusion is not None else 1.0
            rhs += gamma * increment
        return self._resolve(rhs)


def simulate_path(problem: Problem, trajectory_id: int = 0,
                  stepper: Stepper | None = None, sampler=None) -> TrajectorySet:
    """March one full trajectory and collect snapshots.

    ``sampler(step, dt)`` supplies the noise increments; it defaults to the
    trajectory's own stream ``IncrementSampler(problem.noise, trajectory_id)``
    and is ignored without a noise model.  Raises LinearSolveFailure when a
    step produces non-finite values, and BlowupDetected (tagged with the
    trajectory id) when the nodal sup norm exceeds the configured guard,
    which signals scheme instability and should not occur with taming.
    """
    cfg = problem.config
    n_steps = cfg.n_steps
    if (problem.noise is None) != (problem.diffusion is None):
        raise ConfigurationError(
            "noise model and diffusion coefficients must be supplied together")
    if stepper is None:
        stepper = Stepper(problem.system, cfg.dt, cfg.scheme, problem.drift, problem.diffusion)
    if problem.noise is None:
        sampler = None
    elif sampler is None:
        sampler = IncrementSampler(problem.noise, trajectory_id)

    u = np.asarray(problem.initial, dtype=float).copy()
    stride = max(int(cfg.snapshot_stride), 1)
    times = [0.0]
    states = [u.copy()]
    sup = float(np.abs(u).max())
    guard = float(cfg.blowup_guard)
    for step in range(n_steps):
        t = step * cfg.dt
        dW = sampler(step, cfg.dt) if sampler is not None else None
        u = stepper.step(u, t, dW)
        level = float(np.abs(u).max())
        sup = max(sup, level)
        if not math.isfinite(level):
            raise LinearSolveFailure(
                f"trajectory {trajectory_id} produced non-finite values at step {step + 1}")
        if level > guard:
            raise BlowupDetected(
                f"trajectory {trajectory_id} exceeded guard {guard:g} at step {step + 1}",
                trajectory_id=trajectory_id, step=step + 1)
        if (step + 1) % stride == 0 or step + 1 == n_steps:
            times.append((step + 1) * cfg.dt)
            states.append(u.copy())
    seed = problem.noise.seed if problem.noise is not None else None
    return TrajectorySet(np.asarray(times), np.asarray(states), cfg.scheme, sup,
                         trajectory_id=trajectory_id, seed=seed,
                         config_hash=problem.config_hash)
