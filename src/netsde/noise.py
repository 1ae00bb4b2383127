"""Edge noise models in FEM coordinates with reproducible counter streams.

White noise: the load-vector increments of independent per-edge space-time
white noise have covariance ``dt * G`` (G the weighted mass matrix), so
increments are sampled as ``sqrt(dt) * L z`` with ``L L^T = G``.

Colored noise: each edge's noise is smoothed by a diagonal operator in the
Dirichlet sine basis of its weighted L2 space, mode k scaled by
``amplitude * k^{-s}`` with decay ``s > 1/2``.  The increment factor is the
rectangular matrix of mode loads against the nodal basis, computed with
exact piecewise-linear-times-sine integrals, and the covariance
``dt * G_R = dt * (factor @ factor.T)`` has finite trace.  Every edge carries
the same uniform mesh, so one (nodes x modes) load table serves every edge;
each edge scales it by its weight and amplitude.

Streams are deterministic functions of (base seed, trajectory, step): the
Philox key packs ``(seed << 64) | trajectory`` and the 256-bit block counter
starts at ``step << 64``, so draws within a step can never run into the next
step's block range.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assembly import DiscreteSystem, noise_covariance_factor
from .errors import DecayTooSlow, DimensionMismatch
from .mesh import Mesh

_MASK64 = (1 << 64) - 1

# Version of the mapping from (config, seed) to noise increments, recorded in
# every manifest.  2: the white-noise factor comes from a sparse
# factorization, so white increments differ from version 1 at rounding level.
STREAM_VERSION = 2


@dataclass(frozen=True)
class NoiseModel:
    """Covariance factor plus the RNG stream policy."""

    kind: str                    # "white" or "colored"
    factor: object               # (ndof, r) sparse or dense increment factor
    seed: int
    covariance_trace: float
    decay: float | None = None
    n_modes: int | None = None

    @property
    def dim(self) -> int:
        return self.factor.shape[1]

    def with_seed(self, seed: int) -> "NoiseModel":
        return replace(self, seed=int(seed))


def white_noise_model(system: DiscreteSystem, seed: int = 0, lumped: bool = False) -> NoiseModel:
    """Increments with covariance dt*G (or the lumped diagonal variant)."""
    factor = noise_covariance_factor(system, lumped=lumped)
    trace = float(system.lumped_mass.sum()) if lumped else float(system.mass.diagonal().sum())
    return NoiseModel("white", factor, int(seed), trace)


def _mode_loads(mesh: Mesh, n_modes: int) -> np.ndarray:
    """Unweighted loads int phi_a(x) sin(k pi x) dx, (nodes, modes) on one edge.

    Each element [x0, x1] adds the exact integral of its descending hat to
    its left node and of its ascending hat to its right node.
    """
    h = mesh.h
    x0 = (h * np.arange(mesh.n_interior + 1))[:, None]
    x1 = x0 + h
    omega = np.array([k * np.pi for k in range(1, n_modes + 1)])
    # Python's float ** 2 (C pow) and numpy's square differ in the last bit
    # for some k (the first is 2207); colored factors use the former
    omega_sq = np.array([w ** 2 for w in omega.tolist()])

    def antideriv(a, b, x):
        # of (a + b*x) * sin(omega*x), per element and mode
        return -(a + b * x) * np.cos(omega * x) / omega + b * np.sin(omega * x) / omega_sq

    loads = np.zeros((mesh.n_interior + 2, n_modes))
    loads[:-1] += antideriv(x1 / h, -1.0 / h, x1) - antideriv(x1 / h, -1.0 / h, x0)
    loads[1:] += antideriv(-x0 / h, 1.0 / h, x1) - antideriv(-x0 / h, 1.0 / h, x0)
    return loads


def colored_noise_operator(system: DiscreteSystem, decay: float, seed: int = 0,
                           amplitudes=None, n_modes: int | None = None) -> NoiseModel:
    """Diagonal spectral smoothing with mode-k weight amplitude * k^{-decay}.

    ``decay`` must exceed 1/2 so the mode weights are square-summable.  The
    default mode count resolves up to the mesh's interior resolution.
    ``amplitudes`` is one number for every edge or one per edge.
    """
    if decay <= 0.5:
        raise DecayTooSlow(f"spectral decay exponent must exceed 1/2, got {decay}")
    mesh = system.mesh
    m = mesh.n_edges
    if n_modes is None:
        n_modes = mesh.n_interior + 1
    n_modes = int(n_modes)
    if n_modes < 1:
        raise ValueError("need at least one noise mode per edge")
    amp = np.asarray(1.0 if amplitudes is None else amplitudes, dtype=float)
    if amp.ndim == 0:
        amp = np.full(m, float(amp))
    if amp.shape != (m,):
        raise DimensionMismatch(f"need one noise amplitude per edge ({m}), got {amp.size}")

    loads = _mode_loads(mesh, n_modes)
    mode_weights = np.array([k ** (-decay) for k in range(1, n_modes + 1)])
    factor = np.zeros((mesh.ndof, m * n_modes))
    mu = system.fields.weights

    def place_blocks():
        # every entry belongs to exactly one edge block
        for j in range(m):
            # L2(0,1; mu dx)-orthonormal mode is sqrt(2/mu) sin(k pi x); the
            # weighted load against phi_a gains a factor mu
            block = np.sqrt(2.0 * mu[j]) * loads
            block *= amp[j] * mode_weights
            factor[mesh.edge_dofs[j], j * n_modes:(j + 1) * n_modes] = block

    # square in place rather than allocate factor ** 2 (same array, same
    # sum), then place the blocks again
    place_blocks()
    trace = float(np.sum(np.square(factor, out=factor)))
    place_blocks()
    return NoiseModel("colored", factor, int(seed), trace, decay=float(decay), n_modes=n_modes)


def _philox_state(seed: int, trajectory_id: int, step_id: int) -> dict:
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([0, int(step_id) & _MASK64, 0, 0], dtype=np.uint64),
            "key": np.array([int(trajectory_id) & _MASK64, int(seed) & _MASK64],
                            dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def sample_noise_increment(noise: NoiseModel, trajectory_id: int, step_id: int,
                           dt: float) -> np.ndarray:
    """One load-vector increment, a pure function of (seed, trajectory, step)."""
    bitgen = np.random.Philox(key=0)
    bitgen.state = _philox_state(noise.seed, trajectory_id, step_id)
    z = np.random.Generator(bitgen).standard_normal(noise.dim)
    return np.sqrt(dt) * (noise.factor @ z)


class IncrementSampler:
    """Per-trajectory sampler that reuses one bit generator across steps.

    Bitwise identical to ``sample_noise_increment`` (the Philox state is
    reset from the same template before every draw), just cheaper inside
    stepping loops.
    """

    def __init__(self, noise: NoiseModel, trajectory_id: int):
        self.noise = noise
        self.trajectory_id = int(trajectory_id)
        self._bitgen = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bitgen)
        self._factor = noise.factor
        self._dim = noise.dim

    def __call__(self, step_id: int, dt: float) -> np.ndarray:
        self._bitgen.state = _philox_state(self.noise.seed, self.trajectory_id, step_id)
        z = self._gen.standard_normal(self._dim)
        return np.sqrt(dt) * (self._factor @ z)


def coupled_sampler(noise: NoiseModel, trajectory_id: int, ratio: int):
    """Sampler for a coarsened grid: sums ``ratio`` fine-step increments.

    Used by strong-convergence ladders so that every level sees the same
    underlying noise as the reference discretization.
    """
    fine = IncrementSampler(noise, trajectory_id)
    ratio = int(ratio)

    def sample(step_id: int, dt: float) -> np.ndarray:
        fine_dt = dt / ratio
        total = fine(ratio * step_id, fine_dt)
        for i in range(1, ratio):
            total += fine(ratio * step_id + i, fine_dt)
        return total

    return sample
