"""Edge noise models in FEM coordinates with reproducible counter streams.

White noise: the load-vector increments of independent per-edge space-time
white noise have covariance ``dt * G`` (G the weighted mass matrix), so
increments are sampled as ``sqrt(dt) * L z`` with ``L L^T = G`` and L sparse.

Colored noise: each edge's noise is smoothed by a diagonal operator in the
Dirichlet sine basis of its weighted L2 space, mode k scaled by
``amplitude * k^{-s}`` with decay ``s > 1/2``, so the covariance
``dt * factor @ factor.T`` has finite trace.  The factor maps the m*K mode
coefficients to their loads against the nodal basis and is never stored
(``SineFactor``).  Every edge carries the same uniform mesh, nodes
``x_a = a*h`` with ``h = 1/(N+1)``, and the exact load of the interior hat at
``x_a`` is ``c_k sin(k pi a h)`` with ``c_k = (2 - 2cos(k pi h))/((k pi)^2 h)``:
the interior rows of ``factor @ z`` are a discrete sine transform, computed
for all edges by one real FFT of length 2(N+1).  The sine is 2(N+1)-periodic
in k, so modes beyond N+1 fold onto that grid instead of being cut or
rejected, and every mode count runs the same code.  The two end half-hats
have closed-form loads, an O(K) dot product per edge end, and the trace is a
closed-form sum over modes.

Streams are deterministic functions of (base seed, trajectory, step): the
Philox key packs ``(seed << 64) | trajectory`` and the 256-bit block counter
starts at ``step << 64``, so draws within a step can never run into the next
step's block range.

``STREAM_VERSION``, recorded in every manifest, names the whole mapping from
(config, seed) to artifact bytes, noise and arithmetic alike, and changes
whenever any part of it does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import DiscreteSystem, bind_matvec, noise_covariance_factor
from .errors import DecayTooSlow, DimensionMismatch
from .mesh import Mesh

_MASK64 = (1 << 64) - 1

# Version of the mapping from (config, seed) to artifact bytes, recorded in
# every manifest.  2: the white-noise factor comes from a sparse
# factorization, so white increments differ from version 1 at rounding level.
# 3: colored increments come from the sine transform instead of a stored dense
# factor, the reaction polynomial is evaluated by repeated multiplication, and
# a step forms its right-hand side with one mass matvec, G (u + dt F).
# 4: exponential Euler applies its semigroup to the right-hand side the
# implicit schemes share, G (u + dt F) + Gamma dW, so its states differ at
# rounding level; every other scheme's bytes are unchanged.
STREAM_VERSION = 4


@dataclass(frozen=True)
class NoiseModel:
    """Covariance factor plus the RNG stream policy."""

    kind: str                    # "white" or "colored"
    factor: object               # (ndof, r) increment factor: sparse L or SineFactor
    seed: int
    covariance_trace: float
    decay: float | None = None
    n_modes: int | None = None
    _matvec: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a sparse factor runs the compiled CSR kernel directly, bound once
        matvec = bind_matvec(self.factor) if sp.issparse(self.factor) else self.factor.__matmul__
        object.__setattr__(self, "_matvec", matvec)

    @property
    def dim(self) -> int:
        return self.factor.shape[1]

    def apply(self, z: np.ndarray) -> np.ndarray:
        """The increment factor times the standard normal vector ``z``."""
        return self._matvec(z)


def white_noise_model(system: DiscreteSystem, seed: int = 0, lumped: bool = False) -> NoiseModel:
    """Increments with covariance dt*G (or the lumped diagonal variant)."""
    factor = noise_covariance_factor(system, lumped=lumped)
    trace = float(system.lumped_mass.sum()) if lumped else float(system.mass.diagonal().sum())
    return NoiseModel("white", factor, int(seed), trace)


class SineFactor:
    """The colored increment factor, ndof x (m*K), applied without storing it.

    ``weights[j, k-1]`` scales mode k on edge j.  Column ``j*K + k-1`` holds
    that weight times the exact loads of sin(k pi x) against the nodal basis
    of edge j: ``c_k sin(k pi a h)`` at interior node a and the half-hat
    loads at the two ends.
    """

    def __init__(self, mesh: Mesh, weights: np.ndarray):
        m, n_modes = weights.shape
        n = mesh.n_interior
        k = np.arange(1, n_modes + 1)
        omega = k * np.pi
        theta = omega * mesh.h
        # (2 - 2cos(theta)) / (omega^2 h), with 2 - 2cos written as 4 sin^2
        # to avoid cancellation at small theta
        self._interior_load = 4.0 * np.sin(0.5 * theta) ** 2 / (omega ** 2 * mesh.h)
        # int_0^h (1 - x/h) sin(omega x) dx at the first node; the last node's
        # half-hat is its mirror image, (-1)^(k+1) times as much
        left = _one_minus_sinc(theta) / omega
        self._end_loads = np.stack([left, np.where(k % 2 == 1, left, -left)], axis=1)
        self._weights = weights
        self.shape = (mesh.ndof, m * n_modes)
        # sin(k pi a h) is 2(N+1)-periodic in k, so mode k lands on grid point
        # k mod 2(N+1) of its edge's row; modes past N+1 fold onto the grid
        self._grid_shape = (m, 2 * (n + 1))
        self._grid_index = (2 * (n + 1) * np.arange(m)[:, None] + k % (2 * (n + 1))).ravel()
        self._interior_dofs = mesh.edge_dofs[:, 1:-1]
        self._end_dofs = mesh.edge_dofs[:, [0, -1]].ravel()

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        coeff = z.reshape(self._weights.shape) * self._weights
        out = np.bincount(self._end_dofs, weights=(coeff @ self._end_loads).ravel(),
                          minlength=self.shape[0])
        grid = np.bincount(self._grid_index, weights=(coeff * self._interior_load).ravel(),
                           minlength=self._grid_shape[0] * self._grid_shape[1])
        # -imag(rfft(v))[a] = sum_r v_r sin(2 pi a r / (2(N+1))), one real FFT
        # for every edge
        spectrum = np.fft.rfft(grid.reshape(self._grid_shape), axis=1)
        out[self._interior_dofs] = -spectrum.imag[:, 1:-1]
        return out

    def squared_norm(self) -> float:
        """Sum of the squared entries, i.e. the trace of factor @ factor.T.

        Over the interior nodes sum_a sin^2(k pi a h) is (N+1)/2 unless k is
        a multiple of N+1, where every sine vanishes.
        """
        n_plus_1 = self._grid_shape[1] // 2
        k = np.arange(1, self._weights.shape[1] + 1)
        interior = self._interior_load ** 2 * (0.5 * n_plus_1) * (k % n_plus_1 != 0)
        ends = np.sum(self._end_loads ** 2, axis=1)
        return float(np.sum(self._weights ** 2 * (interior + ends)))


def _one_minus_sinc(theta: np.ndarray) -> np.ndarray:
    """1 - sin(theta)/theta for theta > 0, without cancellation near 0."""
    direct = 1.0 - np.sin(theta) / theta
    # below 1 use the Taylor series sum_n (-1)^(n+1) theta^(2n) / (2n+1)!;
    # its tenth term is below 1e-19 of the first
    t = np.minimum(theta, 1.0) ** 2
    series = np.zeros_like(t)
    for n in range(10, 0, -1):
        series = t * ((-1) ** (n + 1) / math.factorial(2 * n + 1) + series)
    return np.where(theta < 1.0, series, direct)


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

    mode_weights = np.array([k ** (-decay) for k in range(1, n_modes + 1)])
    # L2(0,1; mu dx)-orthonormal mode is sqrt(2/mu) sin(k pi x); the weighted
    # load against phi_a gains a factor mu
    edge_weights = np.sqrt(2.0 * system.fields.weights) * amp
    factor = SineFactor(mesh, edge_weights[:, None] * mode_weights)
    return NoiseModel("colored", factor, int(seed), factor.squared_norm(),
                      decay=float(decay), n_modes=n_modes)


def _philox_state(seed: int, trajectory_id: int) -> dict:
    """A trajectory's Philox state at step 0 with an empty output buffer;
    counter word 1 holds the step."""
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([int(trajectory_id) & _MASK64, int(seed) & _MASK64],
                            dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


class IncrementSampler:
    """Per-trajectory sampler that reuses one bit generator and one state.

    The Philox state dict is built once, for (seed, trajectory); before
    every draw only its counter word 1 is rewritten to the step and the dict
    is assigned to the bit generator again, which also empties its buffer.
    Each increment is thus still the same pure function of (seed,
    trajectory, step), whatever order the steps are drawn in.
    """

    def __init__(self, noise: NoiseModel, trajectory_id: int):
        self.noise = noise
        self.trajectory_id = int(trajectory_id)
        self._state = _philox_state(noise.seed, self.trajectory_id)
        self._counter = self._state["state"]["counter"]
        self._bitgen = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bitgen)
        self._dim = noise.dim

    def __call__(self, step_id: int, dt: float) -> np.ndarray:
        self._counter[1] = int(step_id) & _MASK64
        self._bitgen.state = self._state
        z = self._gen.standard_normal(self._dim)
        return np.sqrt(dt) * self.noise.apply(z)


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
