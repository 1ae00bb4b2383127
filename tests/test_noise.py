from dataclasses import replace

import numpy as np
import pytest

from _oracles import colored_factor, philox_increment
from netsde.assembly import assemble_form
from netsde.errors import DecayTooSlow, DimensionMismatch
from netsde.fields import build_edge_fields
from netsde.graph import VertexMatrix, build_graph
from netsde.mesh import build_mesh
from netsde.noise import (
    IncrementSampler,
    colored_noise_operator,
    coupled_sampler,
    white_noise_model,
)


def small_system(n_int=3, n_edges=1, weights=1.0):
    if n_edges == 1:
        graph = build_graph(2, [(1, 2)])
    else:
        graph = build_graph(n_edges + 1, [(1, j + 2) for j in range(n_edges)])
    fields = build_edge_fields(graph.n_edges, weights=weights)
    return assemble_form(build_mesh(graph, n_int), fields, VertexMatrix(-np.eye(graph.n_vertices)))


class TestWhiteNoise:
    def test_bitwise_determinism(self):
        noise = white_noise_model(small_system(), seed=7)
        a = IncrementSampler(noise, 3)(11, 0.01)
        b = IncrementSampler(noise, 3)(11, 0.01)
        assert np.array_equal(a, b)

    def test_streams_differ_across_ids(self):
        noise = white_noise_model(small_system(), seed=7)
        base = IncrementSampler(noise, 3)(11, 0.01)
        assert not np.array_equal(base, IncrementSampler(noise, 4)(11, 0.01))
        assert not np.array_equal(base, IncrementSampler(noise, 3)(12, 0.01))
        assert not np.array_equal(base, IncrementSampler(replace(noise, seed=8), 3)(11, 0.01))

    def test_fast_sampler_is_bitwise_identical(self):
        noise = white_noise_model(small_system(), seed=5)
        sampler = IncrementSampler(noise, trajectory_id=2)
        for step in (0, 1, 5, 1000):
            assert np.array_equal(sampler(step, 0.25), philox_increment(noise, 2, step, 0.25))

    def test_zero_dt_gives_zero_vector(self):
        noise = white_noise_model(small_system(), seed=1)
        assert np.all(IncrementSampler(noise, 0)(0, 0.0) == 0.0)

    def test_scaling_with_dt(self):
        noise = white_noise_model(small_system(), seed=1)
        a = IncrementSampler(noise, 0)(0, 0.01)
        b = IncrementSampler(noise, 0)(0, 0.04)
        np.testing.assert_allclose(b, 2.0 * a, atol=1e-15)

    def test_covariance_matches_mass(self):
        sys = small_system(n_int=4)
        noise = white_noise_model(sys, seed=3)
        dt = 0.2
        n_draw = 30000
        sampler = IncrementSampler(noise, 0)
        incs = np.array([sampler(s, dt) for s in range(n_draw)])
        emp = incs.T @ incs / n_draw
        target = dt * sys.mass.toarray()
        se = dt * np.sqrt((np.outer(np.diag(sys.mass.toarray()), np.diag(sys.mass.toarray()))
                           + sys.mass.toarray() ** 2) / n_draw)
        assert np.all(np.abs(emp - target) <= 4.0 * se)

    def test_coupled_sampler_sums_fine_increments(self):
        noise = white_noise_model(small_system(), seed=9)
        fine = IncrementSampler(noise, trajectory_id=1)
        coarse = coupled_sampler(noise, trajectory_id=1, ratio=4)
        dt_fine = 0.01
        expected = sum(fine(8 + i, dt_fine) for i in range(4))
        np.testing.assert_allclose(coarse(2, 4 * dt_fine), expected, atol=1e-15)


def star_noise(kind, seed=5):
    """A 3-star's white (consistent or lumped) or colored noise model."""
    system = small_system(n_int=5, n_edges=3, weights=[1.0, 2.0, 0.5])
    if kind == "colored":
        return colored_noise_operator(system, decay=1.5, seed=seed, amplitudes=[1.0, 0.25, 3.0])
    return white_noise_model(system, seed=seed, lumped=kind == "lumped")


@pytest.mark.parametrize("kind", ["white", "lumped", "colored"])
class TestSamplerMatchesOracle:
    """``IncrementSampler`` reuses one Philox state; every draw must still
    equal a generator built afresh for (seed, trajectory, step)."""

    def test_steps_out_of_order(self, kind):
        noise = star_noise(kind)
        sampler = IncrementSampler(noise, trajectory_id=2)
        for step in (7, 0, 1000, 1, 7, 3):
            assert np.array_equal(sampler(step, 0.25), philox_increment(noise, 2, step, 0.25))

    def test_interleaved_samplers(self, kind):
        noise = star_noise(kind)
        first, second = IncrementSampler(noise, 0), IncrementSampler(noise, 1)
        for step in range(4):
            assert np.array_equal(first(step, 0.01), philox_increment(noise, 0, step, 0.01))
            assert np.array_equal(second(step, 0.01), philox_increment(noise, 1, step, 0.01))

    def test_ids_are_masked_to_64_bits(self, kind):
        noise = star_noise(kind, seed=(1 << 64) + 5)
        big_step = (1 << 64) + 9
        draw = IncrementSampler(noise, trajectory_id=-1)(big_step, 0.5)
        assert np.array_equal(draw, philox_increment(noise, -1, big_step, 0.5))
        masked = IncrementSampler(replace(noise, seed=5), (1 << 64) - 1)
        assert np.array_equal(draw, masked(9, 0.5))

    def test_coupled_sampler_sums_oracle_draws(self, kind):
        noise = star_noise(kind)
        coarse = coupled_sampler(noise, trajectory_id=3, ratio=4)
        expected = philox_increment(noise, 3, 8, 0.01)
        for i in range(1, 4):
            expected += philox_increment(noise, 3, 8 + i, 0.01)
        assert np.array_equal(coarse(2, 0.04), expected)


class TestColoredNoise:
    def test_slow_decay_rejected(self):
        with pytest.raises(DecayTooSlow):
            colored_noise_operator(small_system(), decay=0.4)

    def test_trace_grows_with_modes_but_converges(self):
        sys = small_system(n_int=31)
        traces = [colored_noise_operator(sys, decay=1.0, n_modes=k).covariance_trace
                  for k in (4, 8, 16, 32)]
        assert np.all(np.diff(traces) > 0.0)
        increments = np.diff(traces)
        assert np.all(np.diff(increments) < 0.0)
        assert traces[-1] < np.inf

    def test_trace_is_frobenius_of_factor(self):
        sys = small_system(n_int=5)
        model = colored_noise_operator(sys, decay=2.0, n_modes=4)
        factor = materialize(model)
        assert model.covariance_trace == pytest.approx(np.trace(factor @ factor.T))

    def test_single_mode_gives_rank_one_noise_per_edge(self):
        sys = small_system(n_int=6)
        model = colored_noise_operator(sys, decay=3.0, n_modes=1)
        sampler = IncrementSampler(model, 0)
        draws = np.array([sampler(s, 1.0) for s in range(40)])
        rank = np.linalg.matrix_rank(draws, tol=1e-10)
        assert rank == 1

    def test_mode_loads_match_quadrature_oracle(self):
        from scipy.integrate import quad
        sys = small_system(n_int=3)
        mesh = sys.mesh
        model = colored_noise_operator(sys, decay=2.0, n_modes=2)
        h = mesh.h
        # interior hat function centered at x = h on edge 1, mode k = 2
        mu = sys.fields.weights[0]
        hat = lambda x: np.maximum(0.0, 1.0 - np.abs(x - h) / h)
        oracle = np.sqrt(2.0 * mu) * 2.0 ** -2.0 * quad(
            lambda x: hat(x) * np.sin(2 * np.pi * x), 0.0, 1.0)[0]
        dof = mesh.edge_dofs[0, 1]
        assert materialize(model)[dof, 1] == pytest.approx(oracle, abs=1e-12)

    def test_covariance_positive_semidefinite(self):
        sys = small_system(n_int=4, n_edges=3)
        factor = materialize(colored_noise_operator(sys, decay=1.5))
        eigs = np.linalg.eigvalsh(factor @ factor.T)
        assert eigs.min() >= -1e-12

    @pytest.mark.parametrize("amplitudes", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
    def test_amplitudes_need_one_per_edge(self, amplitudes):
        with pytest.raises(DimensionMismatch, match="one noise amplitude per edge"):
            colored_noise_operator(small_system(n_int=4, n_edges=3), decay=1.5,
                                   amplitudes=amplitudes)

    @pytest.mark.parametrize("n_int, n_edges, n_modes, weights, amplitudes", [
        (3, 1, 1, 1.0, None),
        (31, 1, 32, 1.0, None),
        (40, 3, 100, [1.0, 2.0, 0.5], [1.0, 0.25, 3.0]),
        (400, 3, None, 1.0, None),
    ])
    def test_factor_matches_reference_loop(self, n_int, n_edges, n_modes, weights, amplitudes):
        sys = small_system(n_int=n_int, n_edges=n_edges, weights=weights)
        model = colored_noise_operator(sys, decay=2.0, amplitudes=amplitudes, n_modes=n_modes)
        factor, trace = reference_colored_factor(sys, 2.0, amplitudes, n_modes)
        assert np.array_equal(colored_factor(sys, 2.0, amplitudes, n_modes), factor)
        # the trace is a closed form now, not the sum of the squared entries
        assert model.covariance_trace == pytest.approx(trace, rel=1e-13)

    # N+1 = 97 and 401 are prime; K below, at and above N+1 (folded modes)
    @pytest.mark.parametrize("n_int, n_edges, n_modes, weights, amplitudes", [
        (96, 1, 50, 1.0, None),
        (96, 3, 97, [1.0, 2.0, 0.5], [1.0, 0.25, 3.0]),
        (96, 3, 300, [1.0, 2.0, 0.5], [1.0, 0.25, 3.0]),
        (400, 1, 1000, 2.0, 0.5),
        (400, 3, None, [1.0, 2.0, 0.5], [1.0, 0.25, 3.0]),
        (40, 3, 100, [1.0, 2.0, 0.5], [1.0, 0.25, 3.0]),
    ])
    def test_apply_matches_oracle_factor(self, n_int, n_edges, n_modes, weights, amplitudes):
        sys = small_system(n_int=n_int, n_edges=n_edges, weights=weights)
        model = colored_noise_operator(sys, decay=2.0, amplitudes=amplitudes, n_modes=n_modes)
        # long double keeps the oracle's own cancellation (about eps*N^2
        # relative in float64) below the tolerance
        factor = colored_factor(sys, 2.0, amplitudes, n_modes, dtype=np.longdouble)
        assert model.dim == factor.shape[1]
        rng = np.random.default_rng(n_int + n_edges)
        for _ in range(5):
            z = rng.standard_normal(model.dim)
            # relative to |factor| @ |z|: entries that are sums of cancelling
            # terms carry the rounding of the terms, not of the sum
            error = np.abs(model.apply(z) - factor @ z)
            assert np.all(error <= 1e-12 * (np.abs(factor) @ np.abs(z)))
        assert model.covariance_trace == pytest.approx(np.sum(factor ** 2), rel=1e-13)

    def test_no_dense_factor_is_stored(self):
        model = colored_noise_operator(small_system(n_int=400, n_edges=3), decay=2.0)
        stored = [v for v in vars(model.factor).values() if isinstance(v, np.ndarray)]
        assert max(v.size for v in stored) <= model.factor.shape[0] + model.dim


def materialize(model):
    """The noise model's factor, one ``apply`` of a unit vector per column."""
    return np.column_stack([model.apply(e) for e in np.eye(model.dim)])


def reference_colored_factor(system, decay, amplitudes=None, n_modes=None):
    """The colored factor as the per-element loop built it before one load
    table served every edge: the arithmetic of colored artifacts up to
    stream version 2.  The loop's loads depend on the mode only, so they are
    computed once per mode here instead of once per (edge, mode)."""
    mesh = system.mesh
    m, h = mesh.n_edges, mesh.h
    n_modes = mesh.n_interior + 1 if n_modes is None else n_modes
    amp = np.ones(m) if amplitudes is None else np.asarray(amplitudes, dtype=float)

    def linear_times_sine(a, b, omega, x0, x1):
        def antideriv(x):
            return -(a + b * x) * np.cos(omega * x) / omega + b * np.sin(omega * x) / omega ** 2
        return antideriv(x1) - antideriv(x0)

    factor = np.zeros((mesh.ndof, m * n_modes))
    for k in range(1, n_modes + 1):
        omega = k * np.pi
        loads = np.zeros(mesh.n_interior + 2)
        for e, x0 in enumerate(h * np.arange(mesh.n_interior + 1)):
            x1 = x0 + h
            loads[e] += linear_times_sine(x1 / h, -1.0 / h, omega, x0, x1)
            loads[e + 1] += linear_times_sine(-x0 / h, 1.0 / h, omega, x0, x1)
        for j in range(m):
            col = np.sqrt(2.0 * system.fields.weights[j]) * loads
            factor[mesh.edge_dofs[j], j * n_modes + (k - 1)] += amp[j] * k ** (-decay) * col
    return factor, float(np.sum(factor ** 2))
