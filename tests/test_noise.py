from dataclasses import replace

import numpy as np
import pytest

from _oracles import colored_factor, philox_increment
from netsde.assembly import assemble_form
from netsde.errors import ConfigurationError, DecayTooSlow, DimensionMismatch
from netsde.fields import build_edge_fields
from netsde.graph import VertexMatrix, build_graph
from netsde.mesh import build_mesh
from netsde.analysis import estimate_strong_order
from netsde.fields import build_diffusion
from netsde.noise import (
    IncrementSampler,
    block_steps,
    colored_noise_operator,
    coupled_sampler,
    white_noise_model,
)
from netsde.sde import Problem, SolverConfig, Stepper


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
        a = IncrementSampler(noise, 3, 0.01, 12)(11)
        b = IncrementSampler(noise, 3, 0.01, 12)(11)
        assert np.array_equal(a, b)

    def test_streams_differ_across_ids(self):
        noise = white_noise_model(small_system(), seed=7)
        base = IncrementSampler(noise, 3, 0.01, 13)(11)
        assert not np.array_equal(base, IncrementSampler(noise, 4, 0.01, 13)(11))
        assert not np.array_equal(base, IncrementSampler(noise, 3, 0.01, 13)(12))
        assert not np.array_equal(base, IncrementSampler(replace(noise, seed=8), 3, 0.01, 13)(11))

    def test_fast_sampler_is_bitwise_identical(self):
        noise = white_noise_model(small_system(), seed=5)
        sampler = IncrementSampler(noise, trajectory_id=2, dt=0.25, n_steps=1001)
        for step in (0, 1, 5, 1000):
            assert np.array_equal(sampler(step), philox_increment(noise, 2, step, 0.25))

    def test_zero_dt_gives_zero_vector(self):
        noise = white_noise_model(small_system(), seed=1)
        assert np.all(IncrementSampler(noise, 0, 0.0, 1)(0) == 0.0)

    def test_scaling_with_dt(self):
        noise = white_noise_model(small_system(), seed=1)
        a = IncrementSampler(noise, 0, 0.01, 1)(0)
        b = IncrementSampler(noise, 0, 0.04, 1)(0)
        np.testing.assert_allclose(b, 2.0 * a, atol=1e-15)

    def test_covariance_matches_mass(self):
        sys = small_system(n_int=4)
        noise = white_noise_model(sys, seed=3)
        dt = 0.2
        n_draw = 30000
        sampler = IncrementSampler(noise, 0, dt, n_draw)
        incs = np.array([sampler(s) for s in range(n_draw)])
        emp = incs.T @ incs / n_draw
        target = dt * sys.mass.toarray()
        se = dt * np.sqrt((np.outer(np.diag(sys.mass.toarray()), np.diag(sys.mass.toarray()))
                           + sys.mass.toarray() ** 2) / n_draw)
        assert np.all(np.abs(emp - target) <= 4.0 * se)

    def test_coupled_sampler_sums_fine_increments(self):
        noise = white_noise_model(small_system(), seed=9)
        dt_fine = 0.01
        fine = IncrementSampler(noise, trajectory_id=1, dt=dt_fine, n_steps=12)
        coarse = coupled_sampler(noise, trajectory_id=1, ratio=4, n_steps=3, dt=4 * dt_fine)
        expected = sum(fine(8 + i) for i in range(4))
        np.testing.assert_allclose(coarse(2), expected, atol=1e-15)


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
        sampler = IncrementSampler(noise, trajectory_id=2, dt=0.25, n_steps=1001)
        for step in (7, 0, 1000, 1, 7, 3):
            assert np.array_equal(sampler(step), philox_increment(noise, 2, step, 0.25))

    def test_interleaved_samplers(self, kind):
        noise = star_noise(kind)
        first, second = IncrementSampler(noise, 0, 0.01, 4), IncrementSampler(noise, 1, 0.01, 4)
        for step in range(4):
            assert np.array_equal(first(step), philox_increment(noise, 0, step, 0.01))
            assert np.array_equal(second(step), philox_increment(noise, 1, step, 0.01))

    def test_ids_are_masked_to_64_bits(self, kind):
        # the seed keeps its low 64 bits; the largest id fills its key word
        noise = star_noise(kind, seed=(1 << 64) + 5)
        top = (1 << 64) - 1
        draw = IncrementSampler(noise, trajectory_id=top, dt=0.5, n_steps=10)(9)
        assert np.array_equal(draw, philox_increment(noise, top, 9, 0.5))
        masked = IncrementSampler(replace(noise, seed=5), top, 0.5, 10)
        assert np.array_equal(draw, masked(9))

    def test_coupled_sampler_sums_oracle_draws(self, kind):
        noise = star_noise(kind)
        coarse = coupled_sampler(noise, trajectory_id=3, ratio=4, n_steps=3, dt=0.04)
        expected = philox_increment(noise, 3, 8, 0.01)
        for i in range(1, 4):
            expected += philox_increment(noise, 3, 8 + i, 0.01)
        assert np.array_equal(coarse(2), expected)


# N+1 = 6 on every edge: K below, at and above N+1 (folded modes)
@pytest.mark.parametrize("kind, n_modes", [
    ("white", None), ("lumped", None), ("colored", 4), ("colored", 6), ("colored", 15),
])
@pytest.mark.parametrize("n_block", [1, 3, 64])
def test_block_apply_equals_column_by_column(kind, n_modes, n_block):
    system = small_system(n_int=5, n_edges=3, weights=[1.0, 2.0, 0.5])
    if kind == "colored":
        noise = colored_noise_operator(system, decay=1.5, amplitudes=[1.0, 0.25, 3.0],
                                       n_modes=n_modes)
    else:
        noise = white_noise_model(system, lumped=kind == "lumped")
    z = np.random.default_rng(n_block).standard_normal((n_block, noise.dim))
    block = noise.apply(z.T)
    assert block.shape == (system.ndof, n_block)
    assert np.array_equal(block, np.column_stack([noise.apply(column) for column in z]))


@pytest.mark.parametrize("shape, steps", [
    ((26, 26), 64), ((292, 292), 64), ((1204, 1203), 16), ((3004, 3004), 8), ((10 ** 6, 1), 1),
])
def test_block_steps_depend_on_the_factor_shape(shape, steps):
    assert block_steps(shape) == steps


@pytest.mark.parametrize("kind", ["white", "lumped", "colored"])
class TestBlockedSampler:
    """Draws served from blocks of ``block_steps`` steps equal the oracle's
    whatever block, order or sampler they come from."""

    def test_steps_across_blocks_in_and_out_of_order(self, kind):
        noise = star_noise(kind)
        n_block = block_steps(noise.factor.shape)
        sampler = IncrementSampler(noise, trajectory_id=2, dt=0.25, n_steps=5 * n_block + 1)
        in_order = list(range(3 * n_block + 2))
        out_of_order = [2 * n_block + 1, 0, n_block - 1, 5 * n_block, n_block, 1, 2 * n_block + 1]
        for step in in_order + out_of_order:
            assert np.array_equal(sampler(step), philox_increment(noise, 2, step, 0.25))

    def test_interleaved_samplers_of_one_model(self, kind):
        noise = star_noise(kind)
        n_steps = 3 * block_steps(noise.factor.shape) + 1
        first = IncrementSampler(noise, 0, 0.01, n_steps)
        second = IncrementSampler(noise, 1, 0.01, n_steps)
        for step in range(n_steps):
            assert np.array_equal(first(step), philox_increment(noise, 0, step, 0.01))
            assert np.array_equal(second(step), philox_increment(noise, 1, step, 0.01))

    def test_coupled_sums_across_blocks(self, kind):
        noise = star_noise(kind)
        n_coarse = 3 * block_steps(noise.factor.shape) // 4 + 2
        coarse = coupled_sampler(noise, trajectory_id=3, ratio=4, n_steps=n_coarse, dt=0.04)
        for step in [*range(n_coarse), 1, 0]:
            expected = philox_increment(noise, 3, 4 * step, 0.01)
            for i in range(1, 4):
                expected += philox_increment(noise, 3, 4 * step + i, 0.01)
            assert np.array_equal(coarse(step), expected)

    def test_mutating_a_draw_leaves_the_stream_unchanged(self, kind):
        noise = star_noise(kind)
        sampler = IncrementSampler(noise, trajectory_id=1, dt=0.25, n_steps=6)
        draw = sampler(5)
        draw += 1.0
        draw[0] = np.nan
        assert np.array_equal(sampler(5), philox_increment(noise, 1, 5, 0.25))


class TestDrawsStopAtTheLastStep:
    """A march draws every step of its trajectory once, each from its own
    Philox reset, and no step past its last; a strong-order ladder draws each
    trajectory's fine stream once for all its levels."""

    @pytest.fixture
    def resets(self, monkeypatch):
        counters, philox = [], np.random.Philox

        # numpy checks a state's generator name against the class name
        class Philox(philox):
            @property
            def state(self):
                return philox.state.__get__(self)

            @state.setter
            def state(self, value):
                counters.append(int(value["state"]["counter"][1]))
                philox.state.__set__(self, value)

        monkeypatch.setattr(np.random, "Philox", Philox)
        return counters

    @staticmethod
    def problem(n_blocks, extra):
        """White noise on a 3-star, marched for ``n_blocks`` whole sampler
        blocks and ``extra`` steps."""
        system = small_system(n_int=5, n_edges=3)
        noise = white_noise_model(system, seed=2)
        n_steps = n_blocks * block_steps(noise.factor.shape) + extra
        config = SolverConfig(dt=1e-3, t_end=n_steps * 1e-3, snapshot_stride=7)
        return Problem(system, config, np.zeros(system.ndof), None, build_diffusion(3, 1.0), noise)

    def test_march(self, resets):
        problem = self.problem(2, 5)
        Stepper(problem).march(trajectory_id=3)
        assert resets == list(range(problem.config.n_steps))

    @staticmethod
    def ladder(problem):
        n_fine = problem.config.n_steps
        return problem.config.t_end / np.array([n_fine, n_fine / 2, n_fine / 4, n_fine / 8])

    def test_strong_order_ladder(self, resets):
        problem = self.problem(2, 8)
        estimate_strong_order(problem, self.ladder(problem), n_trajectories=2)
        assert resets == 2 * list(range(problem.config.n_steps))

    def test_strong_order_ladder_past_the_store_budget(self, resets, monkeypatch):
        problem = self.problem(2, 8)
        unpatched = estimate_strong_order(problem, self.ladder(problem), n_trajectories=2)
        resets.clear()
        n_block = block_steps(problem.noise.factor.shape)
        monkeypatch.setattr("netsde.noise.LADDER_STORE_BYTES",
                            8 * n_block * problem.system.ndof)
        capped = estimate_strong_order(problem, self.ladder(problem), n_trajectories=2)
        assert np.array_equal(capped.values, unpatched.values)
        # the store keeps the first block; each of the 3 coarse levels redraws the rest
        fine = list(range(problem.config.n_steps))
        assert resets == 2 * (fine + 3 * fine[n_block:])

    def test_a_step_past_the_last_is_refused(self):
        sampler = IncrementSampler(star_noise("white"), trajectory_id=0, dt=0.1, n_steps=10)
        sampler(9)
        with pytest.raises(ConfigurationError, match="past the sampler's last step 9"):
            sampler(10)


class TestSamplerArguments:
    @pytest.mark.parametrize("dt", [-0.01, np.nan, np.inf])
    def test_dt_must_be_finite_and_nonnegative(self, dt):
        with pytest.raises(ConfigurationError, match=f"finite and nonnegative, got {dt}"):
            IncrementSampler(star_noise("white"), 0, dt, 10)

    def test_a_negative_step_is_named_as_given(self):
        sampler = IncrementSampler(star_noise("white"), 0, 0.1, 10)
        sampler(0)
        with pytest.raises(ConfigurationError, match="step -1 is negative"):
            sampler(-1)

    @pytest.mark.parametrize("ratio", [0, -2])
    def test_coupled_ratio_must_be_at_least_one(self, ratio):
        with pytest.raises(ConfigurationError, match=f"ratio must be at least 1, got {ratio}"):
            coupled_sampler(star_noise("white"), 0, ratio, 10, 0.1)

    # a truncated id would share another id's stream, and a truncated ratio
    # or step count would change the grid the sampler serves
    @pytest.mark.parametrize("trajectory_id", [1.5, 2.0, True, "1", -1, 1 << 64])
    def test_trajectory_id_must_be_an_integer_in_key_range(self, trajectory_id):
        with pytest.raises(ConfigurationError, match="a trajectory id must"):
            IncrementSampler(star_noise("white"), trajectory_id, 0.1, 10)

    @pytest.mark.parametrize("n_steps", [10.5, 10.0, True])
    def test_step_count_must_be_an_integer(self, n_steps):
        with pytest.raises(ConfigurationError, match="step count must be an integer"):
            IncrementSampler(star_noise("white"), 0, 0.1, n_steps)

    @pytest.mark.parametrize("ratio", [2.5, 2.0, True])
    def test_coupled_ratio_must_be_an_integer(self, ratio):
        with pytest.raises(ConfigurationError, match="ratio must be an integer"):
            coupled_sampler(star_noise("white"), 0, ratio, 10, 0.1)

    def test_numpy_integers_accepted(self):
        noise = star_noise("white")
        given = coupled_sampler(noise, np.uint64(3), np.int64(2), np.int32(5), 0.1)
        assert np.array_equal(given(4), coupled_sampler(noise, 3, 2, 5, 0.1)(4))


class TestColoredNoise:
    def test_zero_modes_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one noise mode"):
            colored_noise_operator(small_system(), decay=1.5, n_modes=0)

    @pytest.mark.parametrize("n_modes", [2.7, 3.0, True, "3"])
    def test_mode_count_must_be_an_integer(self, n_modes):
        with pytest.raises(ConfigurationError, match="mode count must be an integer"):
            colored_noise_operator(small_system(), decay=1.5, n_modes=n_modes)

    def test_numpy_integer_mode_count_accepted(self):
        assert colored_noise_operator(small_system(), decay=1.5, n_modes=np.int64(3)).dim == 3

    def test_slow_decay_rejected(self):
        with pytest.raises(DecayTooSlow):
            colored_noise_operator(small_system(), decay=0.4)

    def test_nan_decay_rejected(self):
        with pytest.raises(DecayTooSlow, match="nan"):
            colored_noise_operator(small_system(), decay=np.nan)

    @pytest.mark.parametrize("amplitudes", [np.nan, np.inf, -1.0])
    def test_amplitudes_must_be_finite_and_nonnegative(self, amplitudes):
        with pytest.raises(ConfigurationError, match=str(amplitudes)):
            colored_noise_operator(small_system(), decay=1.5, amplitudes=amplitudes)

    def test_trace_grows_with_modes_but_converges(self):
        sys = small_system(n_int=31)
        traces = [np.sum(materialize(colored_noise_operator(sys, decay=1.0, n_modes=k)) ** 2)
                  for k in (4, 8, 16, 32)]
        assert np.all(np.diff(traces) > 0.0)
        increments = np.diff(traces)
        assert np.all(np.diff(increments) < 0.0)
        assert traces[-1] < np.inf

    def test_single_mode_gives_rank_one_noise_per_edge(self):
        sys = small_system(n_int=6)
        model = colored_noise_operator(sys, decay=3.0, n_modes=1)
        sampler = IncrementSampler(model, 0, 1.0, 40)
        draws = np.array([sampler(s) for s in range(40)])
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

    @pytest.mark.parametrize("amplitudes", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [0.5]])
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
        factor = reference_colored_factor(sys, 2.0, amplitudes, n_modes)
        assert np.array_equal(colored_factor(sys, 2.0, amplitudes, n_modes), factor)

    # N+1 = 97, 401 and 41 are prime, N+1 = 100 is smooth, so both of
    # pocketfft's paths run; K below, at and above N+1 (folded modes)
    @pytest.mark.parametrize("n_int, n_edges, n_modes, weights, amplitudes", [
        (96, 1, 50, 1.0, None),
        (96, 3, 97, [1.0, 2.0, 0.5], [1.0, 0.25, 3.0]),
        (96, 3, 300, [1.0, 2.0, 0.5], [1.0, 0.25, 3.0]),
        (400, 1, 1000, 2.0, 0.5),
        (400, 3, None, [1.0, 2.0, 0.5], [1.0, 0.25, 3.0]),
        (40, 3, 100, [1.0, 2.0, 0.5], [1.0, 0.25, 3.0]),
        (99, 3, None, [1.0, 2.0, 0.5], [1.0, 0.25, 3.0]),
        (99, 1, 250, 2.0, 0.5),
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

    # K below, at and above N+1 = 6 and 7; for even N+1, a mode that lands
    # on node (N+1)/2 puts both its entries in one row
    @pytest.mark.parametrize("n_int, n_modes", [(5, 4), (5, 6), (5, 40), (6, 7), (6, 50)])
    def test_fold_has_at_most_two_entries_per_mode(self, n_int, n_modes):
        factor = colored_noise_operator(small_system(n_int=n_int, n_edges=3), decay=2.0,
                                        n_modes=n_modes).factor
        assert factor._fold.shape == (n_int + 1, n_modes)
        assert factor._fold.nnz <= 2 * n_modes

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
    return factor
