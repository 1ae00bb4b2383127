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
the interior rows of ``factor @ z`` are a discrete sine transform (DST-I),
computed for every edge and step by one sparse fold and one real FFT of
length N+1.  The sine is 2(N+1)-periodic in k, so modes beyond N+1 fold onto
the N interior nodes instead of being cut or rejected, and every mode count
runs the same code.  The two end half-hats have closed-form loads, two more
rows of the same sparse fold.

Streams are deterministic functions of (base seed, trajectory, step): the
Philox key packs ``(seed << 64) | trajectory`` and the 256-bit block counter
starts at ``step << 64``, so draws within a step can never run into the next
step's block range.  A sampler serves one time grid, its dt fixed when it
is built.  Increments are drawn per step but applied per block: a sampler
draws the normals of an aligned block of steps, each from its own counter,
and applies the factor once to the (dim, B) block.  B depends only on the
factor's shape (``block_steps``), and the block's columns equal the per-step
products bit for bit, so blocking changes no byte.  A strong-order ladder
draws each trajectory's fine stream once: its levels share one store of
unscaled applied blocks, and each level scales them by its own
``sqrt(dt)``.  The store keeps at most ``LADDER_STORE_BYTES`` (64 MiB) of
blocks; each level draws the blocks past that budget again.

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
from .errors import ConfigurationError, DecayTooSlow
from .fields import per_edge_numbers
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
# rounding level; every other scheme's bytes are unchanged.  Exponential
# Euler has since been removed; no remaining scheme's bytes moved.
# 5: the colored sine transform runs through a real FFT of length N+1 instead
# of 2(N+1), so colored increments differ at rounding level; white ones do not.
# 6: a step solves by arrowhead block elimination (``assembly.arrowhead_solver``)
# instead of SuperLU, the colored end loads are CSR row sums instead of a
# matmul, and the log-log fit and the E2 norm are numpy sums instead of BLAS
# calls, so states, colored increments and fitted exponents differ at rounding
# level, and no artifact but the spectrum's depends on the OpenBLAS core.
STREAM_VERSION = 6


@dataclass(frozen=True)
class NoiseModel:
    """The increment factor and the base seed of the RNG streams."""

    factor: object               # (ndof, r) increment factor: sparse L or SineFactor
    seed: int
    _matvec: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a sparse factor runs the compiled CSR kernel directly, bound once
        matvec = bind_matvec(self.factor) if sp.issparse(self.factor) else self.factor.__matmul__
        object.__setattr__(self, "_matvec", matvec)

    @property
    def dim(self) -> int:
        return self.factor.shape[1]

    def apply(self, z: np.ndarray) -> np.ndarray:
        """The increment factor times ``z``: a standard normal vector, or a
        (dim, B) block of them, whose columns are multiplied one by one."""
        return self._matvec(z)


def white_noise_model(system: DiscreteSystem, seed: int = 0, lumped: bool = False) -> NoiseModel:
    """Increments with covariance dt*G (or the lumped diagonal variant)."""
    return NoiseModel(noise_covariance_factor(system, lumped=lumped), int(seed))


class SineFactor:
    """The colored increment factor, ndof x (m*K), applied without storing it.

    ``weights[j, k-1]`` scales mode k on edge j.  Column ``j*K + k-1`` holds
    that weight times the exact loads of sin(k pi x) against the nodal basis
    of edge j: ``c_k sin(k pi a h)`` at interior node a and the half-hat
    loads at the two ends.

    The interior rows are a DST-I of length N, ``S_a = sum_r x_r sin(pi a r
    / n)`` with ``n = N+1``, where ``x_r`` sums the weighted coefficients of
    the modes that land on node r, each times its ``c_k`` and the sign of
    its wrap-around.  It runs through one real FFT of length n (Cooley,
    Lewis & Welch, J. Sound Vib. 12, 1970): one sparse n x K matrix, shared
    by every edge, folds the coefficients into the FFT input
    ``w_j = (s_j + 1/2) x_j + (s_j - 1/2) x_{n-j}`` with ``s_j = sin(j pi / n)``,
    and ``Y = rfft(w)`` gives ``S_2k = -Im Y_k`` and the running sum
    ``S_2k+1 = S_2k-1 + Re Y_k`` from ``S_1 = Re Y_0 / 2``.  No path depends
    on N or on BLAS.
    """

    def __init__(self, mesh: Mesh, weights: np.ndarray):
        m, n_modes = weights.shape
        n = mesh.n_interior + 1
        k = np.arange(1, n_modes + 1)
        omega = k * np.pi
        theta = omega * mesh.h
        # (2 - 2cos(theta)) / (omega^2 h), with 2 - 2cos written as 4 sin^2
        # to avoid cancellation at small theta
        interior_load = 4.0 * np.sin(0.5 * theta) ** 2 / (omega ** 2 * mesh.h)
        # int_0^h (1 - x/h) sin(omega x) dx at the first node; the last node's
        # half-hat is its mirror image, (-1)^(k+1) times as much
        left = _one_minus_sinc(theta) / omega
        self._weights = weights
        self.shape = (mesh.ndof, m * n_modes)
        self._fold = _sine_fold(n, interior_load)
        # the two end-load rows below the fold: one CSR matvec gives both
        fold, modes = self._fold.tocsr(), np.arange(n_modes)
        self._fold_matvec = bind_matvec(sp.csr_matrix(
            (np.concatenate([fold.data, left, np.where(k % 2 == 1, left, -left)]),
             np.concatenate([fold.indices, modes, modes]),
             np.concatenate([fold.indptr, fold.nnz + n_modes * np.arange(1, 3)])),
            shape=(n + 2, n_modes)))
        self._interior_dofs = mesh.edge_dofs[:, 1:-1]
        self._end_dofs = mesh.edge_dofs[:, [0, -1]].ravel()

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        """The factor times ``z``: one vector, or each column of a (dim, B)
        block.  Every column goes through the same per-step arithmetic (CSR
        row sums, FFT rows and running sums), so a block's columns equal the
        products of its columns alone bit for bit."""
        m, n_modes = self._weights.shape
        coeff = z.T.reshape(-1, m, n_modes) * self._weights   # (B, m, K)
        n_block, n_rows = coeff.shape[0], self.shape[0]
        # one column per (step, edge): the FFT input, then its two end loads
        folded = self._fold_matvec(coeff.reshape(-1, n_modes).T)
        block = np.arange(n_block)[:, None]
        out = np.bincount((self._end_dofs + n_rows * block).ravel(),
                          weights=folded[-2:].T.ravel(),
                          minlength=n_block * n_rows).reshape(n_block, n_rows)
        # one transform per column
        spectrum = np.fft.rfft(folded[:-2], axis=0)
        n_interior = self._interior_dofs.shape[1]
        interior = np.empty((n_interior, n_block * m))
        interior[1::2] = -spectrum.imag[1:n_interior // 2 + 1]
        odd = spectrum.real[:(n_interior + 1) // 2]
        odd[0] *= 0.5
        np.cumsum(odd, axis=0, out=interior[0::2])
        out[:, self._interior_dofs] = interior.T.reshape(n_block, m, n_interior)
        return out.T if z.ndim == 2 else out[0]


def _sine_fold(n: int, loads: np.ndarray) -> sp.csc_matrix:
    """The n x K matrix taking mode coefficients to the FFT input of a
    length-(n-1) DST-I, ``w_j = (s_j + 1/2) x_j + (s_j - 1/2) x_{n-j}``.

    sin(k pi r / n) is 2n-periodic in k and odd, so with w = k mod 2n, mode k
    loads ``x_r`` with ``+loads[k-1]`` at r = w when w < n, with
    ``-loads[k-1]`` at r = 2n - w when w > n, and not at all when w is 0 or
    n.  Its column holds two entries, in rows r and n-r (one row twice when
    r = n/2, which the CSR form sums); row 0 is empty."""
    wrapped = np.arange(1, len(loads) + 1) % (2 * n)
    cols = np.flatnonzero(wrapped % n)
    offset = n - wrapped[cols]      # +-(n - r), negative for a mode that wraps
    value = np.copysign(loads[cols], offset)
    far = np.abs(offset)
    near = n - far
    # the smaller angle keeps s_r and s_{n-r} equal and accurate
    s = np.sin(np.pi * np.minimum(near, far) / n)
    data = np.stack([value * (s + 0.5), value * (s - 0.5)], axis=1)
    indptr = np.zeros(len(loads) + 1, dtype=np.int64)
    indptr[cols + 1] = 2
    return sp.csc_matrix((data.ravel(), np.stack([near, far], axis=1).ravel(), np.cumsum(indptr)),
                         shape=(n, len(loads)))


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
    ``amplitudes`` is one nonnegative number for every edge or one per edge.
    """
    if not decay > 0.5:  # also true for NaN
        raise DecayTooSlow(f"spectral decay exponent must exceed 1/2, got {decay}")
    mesh = system.mesh
    m = mesh.n_edges
    if n_modes is None:
        n_modes = mesh.n_interior + 1
    n_modes = _integer(n_modes, "the noise mode count")
    if n_modes < 1:
        raise ConfigurationError(f"need at least one noise mode per edge, got {n_modes}")
    amp = per_edge_numbers(1.0 if amplitudes is None else amplitudes, m, "noise amplitude")
    if not np.all((amp >= 0.0) & (amp < np.inf)):
        raise ConfigurationError(
            f"noise amplitudes must be finite and nonnegative, got {amp.tolist()}")

    mode_weights = np.array([k ** (-decay) for k in range(1, n_modes + 1)])
    # L2(0,1; mu dx)-orthonormal mode is sqrt(2/mu) sin(k pi x); the weighted
    # load against phi_a gains a factor mu
    edge_weights = np.sqrt(2.0 * system.fields.weights) * amp
    return NoiseModel(SineFactor(mesh, edge_weights[:, None] * mode_weights), int(seed))


def _integer(value, what: str) -> int:
    """``value`` as an int: a ConfigurationError naming ``what`` unless it is
    an integer, a numpy one included and a bool not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _philox_state(seed: int, trajectory_id: int) -> dict:
    """A trajectory's Philox state at step 0 with an empty output buffer;
    counter word 1 holds the step."""
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([trajectory_id, int(seed) & _MASK64],
                            dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def block_steps(shape) -> int:
    """The steps one sampler block serves for a factor of this (rows, cols)
    shape: a power of two, at most 64, whose normals and products fit in
    512 KiB."""
    fit = max(1, (1 << 19) // (8 * (shape[0] + shape[1])))
    return min(64, 1 << (fit.bit_length() - 1))


# The most bytes of unscaled applied blocks a ladder's store keeps for one
# trajectory: a whole fine stream of 2^17 steps at 3004 dofs would take 3.1 GB
LADDER_STORE_BYTES = 64 << 20


class IncrementSampler:
    """Per-trajectory sampler: normals drawn per step, factor applied per block.

    ``sampler(step)`` is the increment of step ``step`` in ``[0, n_steps)``,
    the factor times that step's normals scaled by ``sqrt(dt)``; ``dt``, which
    must be finite and nonnegative, is fixed when the sampler is built.  The
    trajectory id must be an integer in [0, 2^64), the Philox key word it
    fills, and ``n_steps`` an integer, so no two ids share a stream.  Steps
    fall into aligned blocks of ``block_steps(factor.shape)`` steps.  The
    first draw of a step outside the current block fills that step's block:
    for each of its steps, counter word 1 of the one Philox state dict is
    rewritten to the step and the dict is assigned to the bit generator again
    (which also empties its buffer), and that step's normals fill one row;
    then one ``NoiseModel.apply`` serves the whole block.  Each increment is
    thus the same pure function of (seed, trajectory, step, dt), whatever
    order the steps are drawn in.  No block reaches past ``n_steps``, and a
    step outside the grid raises ConfigurationError, so a march draws
    nothing beyond its last step.

    ``store``, a dict shared by the samplers of one trajectory with the same
    noise model and fine step count (a strong-order ladder's levels), maps a
    block's first step to its unscaled applied block.  A fill takes the block
    from there, resetting Philox, drawing and applying only on a miss, and
    keeps a missed block while the store stays within ``LADDER_STORE_BYTES``;
    every sampler scales by its own ``sqrt(dt)``, so its increments do not
    depend on which sampler drew the block.
    """

    def __init__(self, noise: NoiseModel, trajectory_id: int, dt: float, n_steps: int,
                 store: dict | None = None):
        if not 0.0 <= dt < math.inf:  # also false for NaN
            raise ConfigurationError(f"a sampler's dt must be finite and nonnegative, got {dt}")
        self.trajectory_id = _integer(trajectory_id, "a trajectory id")
        if not 0 <= self.trajectory_id <= _MASK64:
            raise ConfigurationError(f"a trajectory id must lie in [0, 2^64), got {trajectory_id}")
        self.noise = noise
        self._scale = math.sqrt(dt)
        self._n_steps = _integer(n_steps, "a sampler's step count")
        self._state = _philox_state(noise.seed, self.trajectory_id)
        self._counter = self._state["state"]["counter"]
        self._bitgen = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bitgen)
        self._block = block_steps(noise.factor.shape)
        self._normals = np.empty((self._block, noise.dim))
        self._store = store
        # the filled block: its first step and one increment per row
        self._start, self._rows = 0, ()

    def __call__(self, step: int) -> np.ndarray:
        j = step - self._start
        if not 0 <= j < len(self._rows):
            j = self._fill(step)
        # a fresh array: callers add into what they get
        return self._rows[j].copy()

    def _fill(self, step: int) -> int:
        """Scale the applied block holding ``step``, taken from the store or
        drawn and applied; its row there."""
        if not 0 <= step < self._n_steps:
            raise ConfigurationError(f"step {step} is negative or past the sampler's "
                                     f"last step {self._n_steps - 1}")
        start = step - step % self._block
        store = self._store
        applied = None if store is None else store.get(start)
        if applied is None:
            normals = self._normals[:min(self._block, self._n_steps - start)]
            for row, block_step in zip(normals, range(start, start + len(normals))):
                self._counter[1] = block_step
                self._bitgen.state = self._state
                self._gen.standard_normal(out=row)
            applied = self.noise.apply(normals.T).T
            # every kept block but the last is whole: count each as whole
            whole = 8 * self._block * self.noise.factor.shape[0]
            if store is not None and (len(store) + 1) * whole <= LADDER_STORE_BYTES:
                store[start] = applied
        self._start = start
        self._rows = np.multiply(self._scale, applied, order="C")
        return step - start


def coupled_sampler(noise: NoiseModel, trajectory_id: int, ratio: int, n_steps: int,
                    dt: float, store: dict | None = None):
    """Sampler for a coarse grid of ``n_steps`` steps of ``dt``: sums
    ``ratio`` fine-step increments.

    Used by strong-convergence ladders so that every level sees the same
    underlying noise as the reference discretization.  Its fine stream is an
    ``IncrementSampler`` of ``ratio * n_steps`` steps of ``dt / ratio``
    reading ``store``; at ratio 1 that sampler is returned itself.  With one
    store per trajectory, a ladder draws and applies the fine stream once, up
    to the store's budget ``LADDER_STORE_BYTES``.
    """
    ratio = _integer(ratio, "a coupled sampler's ratio")
    if ratio < 1:
        raise ConfigurationError(f"a coupled sampler's ratio must be at least 1, got {ratio}")
    fine = IncrementSampler(noise, trajectory_id, dt / ratio, ratio * n_steps, store)
    if ratio == 1:
        return fine

    def sample(step: int) -> np.ndarray:
        total = fine(ratio * step)
        for i in range(1, ratio):
            total += fine(ratio * step + i)
        return total

    return sample
