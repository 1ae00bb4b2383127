import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from netsde import analysis
from netsde.analysis import (
    ExponentEstimate,
    allen_cahn_energy,
    e2_norm_rows,
    einf_norm_rows,
    estimate_holder_exponent,
    estimate_strong_order,
    holder_exponent_from_paths,
    monte_carlo,
    run_trajectories,
    vertex_residual,
)
from netsde.assembly import assemble_form
from netsde.errors import (
    ConfigurationError,
    DimensionMismatch,
    InsufficientResolution,
    LadderTooShort,
)
from netsde.fields import build_diffusion, build_edge_fields, polynomial_drift
from netsde.graph import VertexMatrix, build_graph
from netsde.mesh import build_mesh, interpolate
from netsde.noise import (
    IncrementSampler,
    colored_noise_operator,
    coupled_sampler,
    white_noise_model,
)
from netsde.sde import Problem, SolverConfig, Stepper, TrajectorySet, simulate_path, solve_heat

from _oracles import (
    colored_factor,
    linear_implicit_moments,
    linear_multiplicative_moments,
    random_multigraph_mesh,
    reference_dof_map,
    reference_weighted_incidence,
    robin_eigenfunction,
    robin_eigenvalues,
)


def heat_noise_problem(n_int=6, dt=1e-3, t_end=0.25, seed=0, stride=1, drift=None):
    graph = build_graph(2, [(1, 2)])
    fields = build_edge_fields(1)
    system = assemble_form(build_mesh(graph, n_int), fields, VertexMatrix(-np.eye(2)))
    diffusion = build_diffusion(1, 1.0)
    noise = white_noise_model(system, seed=seed)
    u0 = interpolate(system.mesh, lambda x: np.sin(np.pi * x))
    cfg = SolverConfig(dt=dt, t_end=t_end, snapshot_stride=stride)
    return Problem(system, cfg, u0, drift, diffusion, noise)


def reference_holder_fit(times, paths, lags, norm_fn=None, burn_fraction=0.25):
    """``holder_exponent_from_paths`` as it was before the increments shared
    one buffer (a fresh difference array per lag and path); valid lags only."""
    lags = np.asarray(lags, dtype=float)
    steps = np.round(lags / float(times[1] - times[0])).astype(int)
    start = int(math.ceil(burn_fraction * (times.size - 1)))
    if norm_fn is None:
        norm_fn = lambda diffs: np.linalg.norm(diffs, axis=1)
    sums = np.zeros(lags.size)
    counts = np.zeros(lags.size)
    for path in paths:
        path = np.asarray(path, dtype=float)
        for i, k in enumerate(steps):
            diffs = path[start + k:] - path[start:-k]
            sums[i] += float(norm_fn(np.atleast_2d(diffs)).sum())
            counts[i] += diffs.shape[0]
    means = sums / counts
    slope, half_width, r2, residuals = analysis._ols_loglog(lags, means, "lag")
    return analysis.ExponentEstimate(slope, half_width, r2, lags, means, residuals)


class TestHolderCalibration:
    def brownian_paths(self, n_paths=200, n_snap=401, spacing=1e-3, seed=99):
        rng = np.random.default_rng(seed)
        increments = rng.standard_normal((n_paths, n_snap - 1, 1)) * np.sqrt(spacing)
        paths = np.concatenate([np.zeros((n_paths, 1, 1)), np.cumsum(increments, axis=1)],
                               axis=1)
        times = spacing * np.arange(n_snap)
        return times, list(paths)

    def test_brownian_exponent_half(self):
        times, paths = self.brownian_paths()
        lags = np.array([2, 4, 8, 16, 32]) * 1e-3
        est = estimate = holder_exponent_from_paths(times, paths, lags)
        assert est.estimate == pytest.approx(0.5, abs=0.05)

    def test_lipschitz_exponent_one(self):
        times = 1e-3 * np.arange(501)
        path = np.sin(2 * np.pi * times)[:, None]
        lags = np.array([2, 4, 8, 16]) * 1e-3
        est = holder_exponent_from_paths(times, [path], lags)
        assert est.estimate == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("path, lag", [
        (np.zeros((101, 2)), "0.001"),
        (np.tile([[0.0], [1.0]], (51, 1))[:101], "0.002"),
    ], ids=["constant", "period_two"])
    def test_zero_mean_increment_names_the_first_such_lag(self, path, lag):
        # a path of period two snapshots has zero increments from lag 2e-3 on;
        # pytest.ini turns the RuntimeWarning of a log(0) into an error
        times = 1e-3 * np.arange(101)
        with pytest.raises(ConfigurationError, match=rf"the mean at lag {lag} is 0\.0; "):
            holder_exponent_from_paths(times, [path], [1e-3, 2e-3, 4e-3, 8e-3])

    @pytest.mark.parametrize("shapes, match", [
        ([(401,)], r"path 0 has shape \(401,\), expected \(401, d\)"),
        ([(401, 1), (90, 1)], r"path 1 has shape \(90, 1\), expected \(401, 1\)"),
        ([(120, 1)], r"path 0 has shape \(120, 1\), expected \(401, 1\)"),
        ([(401, 2), (401, 3)], r"path 1 has shape \(401, 3\), expected \(401, 2\)"),
    ], ids=["one_dimensional", "short", "long", "columns"])
    def test_paths_must_fit_the_times(self, shapes, match):
        times, (path,) = self.brownian_paths(n_paths=1)
        paths = [np.resize(path, shape) for shape in shapes]
        with pytest.raises(DimensionMismatch, match=match):
            holder_exponent_from_paths(times, paths, np.array([2, 4, 8, 16]) * 1e-3)

    def test_lag_validation(self):
        times, paths = self.brownian_paths(n_paths=2, n_snap=64)
        with pytest.raises(LadderTooShort):
            holder_exponent_from_paths(times, paths, [1e-3, 2e-3, 4e-3])
        with pytest.raises(ConfigurationError):
            holder_exponent_from_paths(times, paths, [4e-3, 2e-3, 8e-3, 16e-3])
        with pytest.raises(InsufficientResolution):
            holder_exponent_from_paths(times, paths, [1.5e-3, 2e-3, 4e-3, 8e-3])

    @pytest.mark.parametrize("norm", ["default", "E2", "Einf"])
    def test_fit_matches_reference_loop(self, norm):
        system = heat_noise_problem().system
        norm_fn = {"default": None, "E2": e2_norm_rows(system), "Einf": einf_norm_rows}[norm]
        rng = np.random.default_rng(11)
        times = 1e-3 * np.arange(301)
        paths = list(np.cumsum(rng.standard_normal((3, times.size, system.mesh.ndof)), axis=1))
        lags = np.array([2, 4, 8, 16, 64]) * 1e-3
        est = holder_exponent_from_paths(times, paths, lags, norm_fn, burn_fraction=0.3)
        ref = reference_holder_fit(times, paths, lags, norm_fn, burn_fraction=0.3)
        for field in dataclasses.fields(ref):
            assert np.array_equal(getattr(est, field.name), getattr(ref, field.name)), field.name

    def test_generator_fits_like_a_list(self):
        times, paths = self.brownian_paths(n_paths=20)
        lags = np.array([2, 4, 8, 16]) * 1e-3
        ref = holder_exponent_from_paths(times, paths, lags)
        est = holder_exponent_from_paths(times, (path for path in paths), lags)
        for field in dataclasses.fields(ref):
            assert np.array_equal(getattr(est, field.name), getattr(ref, field.name)), field.name
        with pytest.raises(ConfigurationError, match="need at least one path"):
            holder_exponent_from_paths(times, (path for path in []), lags)

    @pytest.mark.parametrize("norm", ["E2", "Einf"])
    @pytest.mark.parametrize("kind", ["white", "colored"])
    def test_estimator_matches_fit_of_stacked_trajectories(self, kind, norm):
        problem = heat_noise_problem(dt=1e-3, t_end=0.2, seed=6)
        if kind == "colored":
            noise = colored_noise_operator(problem.system, decay=1.5, seed=6, n_modes=5)
            problem = dataclasses.replace(problem, noise=noise)
        lags = np.array([4, 8, 16, 32]) * 1e-3
        est = estimate_holder_exponent(problem, lags, n_trajectories=3, norm=norm)
        # the lags' gcd is 4 steps, the estimator's snapshot stride
        trajs = run_trajectories(problem.with_config(snapshot_stride=4), range(3))
        norm_fn = e2_norm_rows(problem.system) if norm == "E2" else einf_norm_rows
        ref = holder_exponent_from_paths(trajs[0].times, [t.states for t in trajs], lags,
                                         norm_fn)
        for field in dataclasses.fields(ref):
            assert np.array_equal(getattr(est, field.name), getattr(ref, field.name)), field.name

    def test_estimator_holds_one_trajectory_at_a_time(self, monkeypatch):
        states, held = [], []
        original = Stepper.march

        def march(stepper, trajectory_id=0, sampler=None):
            held.append([j for j, ref in enumerate(states) if ref() is not None])
            trajectory = original(stepper, trajectory_id, sampler)
            states.append(weakref.ref(trajectory.states))
            return trajectory

        monkeypatch.setattr(Stepper, "march", march)
        problem = heat_noise_problem(dt=1e-3, t_end=0.2, seed=5)
        estimate_holder_exponent(problem, np.array([4, 8, 16, 32]) * 1e-3, n_trajectories=4)
        assert len(held) == 4
        for i, alive in enumerate(held):
            assert all(j >= i - 1 for j in alive), (i, alive)

    def test_driver_rejects_coarse_dt(self):
        problem = heat_noise_problem(dt=1e-3)
        with pytest.raises(InsufficientResolution):
            estimate_holder_exponent(problem, [2e-3, 4e-3, 8e-3, 16e-3], n_trajectories=2)

    def test_unknown_norm_rejected_before_marching(self, monkeypatch):
        def march(*args, **kwargs):
            raise AssertionError("trajectories marched before the norm was checked")

        monkeypatch.setattr(Stepper, "march", march)
        problem = heat_noise_problem(dt=1e-3, t_end=0.2)
        with pytest.raises(ConfigurationError, match="unknown norm"):
            estimate_holder_exponent(problem, np.array([4, 8, 16, 32]) * 1e-3,
                                     n_trajectories=2, norm="L1")

    def test_zero_trajectories_rejected_before_marching(self, monkeypatch):
        def march(*args, **kwargs):
            raise AssertionError("trajectories marched before their count was checked")

        monkeypatch.setattr(Stepper, "march", march)
        problem = heat_noise_problem(dt=1e-3, t_end=0.2)
        with pytest.raises(ConfigurationError, match="at least one trajectory"):
            estimate_holder_exponent(problem, np.array([4, 8, 16, 32]) * 1e-3,
                                     n_trajectories=0)

    def test_estimator_deterministic_given_seed(self):
        problem = heat_noise_problem(dt=1e-3, t_end=0.2, seed=5)
        lags = np.array([4, 8, 16, 32]) * 1e-3
        a = estimate_holder_exponent(problem, lags, n_trajectories=8)
        b = estimate_holder_exponent(problem, lags, n_trajectories=8)
        assert a.estimate == b.estimate
        np.testing.assert_array_equal(a.values, b.values)

    def test_white_noise_spde_exponent_near_quarter(self):
        problem = heat_noise_problem(n_int=24, dt=2e-4, t_end=0.2, seed=2)
        lags = np.array([4, 8, 20, 40, 80]) * 2e-4
        est = estimate_holder_exponent(problem, lags, n_trajectories=24, burn_fraction=0.3)
        assert 0.15 <= est.estimate <= 0.35
        assert est.r_squared > 0.9


class TestMonteCarlo:
    def test_zero_noise_ensemble_collapses(self):
        problem = heat_noise_problem()
        deterministic = Problem(problem.system, problem.config, problem.initial)
        stats = monte_carlo(deterministic, n_trajectories=3)
        # identical paths; the variance only carries the mean's last-ulp noise
        assert np.max(stats.variance) < 1e-30
        reference = solve_heat(problem.system, problem.initial, 0.25, 1e-3)
        np.testing.assert_allclose(stats.mean[-1], reference.final_state(), atol=1e-12)

    @pytest.mark.parametrize("kind", ["white", "lumped", "colored"])
    def test_moments_match_linear_implicit_closed_form(self, kind):
        # no drift and g = 1: the pencil modes form a Gaussian autoregression
        # with known mean and covariance
        graph = build_graph(4, [(1, 2), (1, 3), (1, 4)])
        system = assemble_form(build_mesh(graph, 10), build_edge_fields(3),
                               VertexMatrix(-np.eye(4)))
        u0 = interpolate(system.mesh, lambda x: 1.0 + np.sin(np.pi * x))
        dt, n_steps, n = 2e-3, 50, 400
        if kind == "colored":
            noise = colored_noise_operator(system, 1.0, seed=2026, n_modes=8)
            factor = colored_factor(system, 1.0, n_modes=8)
            covariance = factor @ factor.T
        else:
            noise = white_noise_model(system, seed=2026, lumped=kind == "lumped")
            G = system.mass.toarray()
            covariance = np.diag(G.sum(axis=1)) if kind == "lumped" else G
        problem = Problem(system, SolverConfig(dt=dt, t_end=n_steps * dt), u0, None,
                          build_diffusion(3, 1.0), noise)
        stats = monte_carlo(problem, n_trajectories=n)
        mean, variance = linear_implicit_moments(system, u0, dt, n_steps, covariance)
        assert system.ndof == 34
        # Gaussian standard errors of the sample mean and the unbiased variance
        z_mean = (stats.mean[-1] - mean) / np.sqrt(variance / n)
        z_var = (stats.variance[-1] * n / (n - 1) - variance) / (variance * np.sqrt(2 / (n - 1)))
        assert np.abs(z_mean).max() < 4.0
        assert np.abs(z_var).max() < 4.0

    @pytest.mark.parametrize("kind", ["white", "lumped", "colored"])
    def test_moments_match_multiplicative_closed_form(self, kind):
        # no drift and g = a(x) + b(x)*u per edge; at vertex 1, where the
        # three edges start, their a and b disagree and edge 1's values hold
        graph = build_graph(4, [(1, 2), (1, 3), (1, 4)])
        system = assemble_form(build_mesh(graph, 10), build_edge_fields(3),
                               VertexMatrix(-np.eye(4)))
        u0 = interpolate(system.mesh, lambda x: 1.0 + np.sin(np.pi * x))
        dt, n_steps, n = 2e-3, 50, 800
        a0, a1, b0, b1 = [0.5, 1.0, 0.25], [0.5, -0.5, 1.0], [0.25, 0.5, 0.125], [0.25, -0.25, 0.5]
        diffusion = build_diffusion(3, [f"{a0[j]} + {a1[j]}*x + ({b0[j]} + {b1[j]}*x)*u"
                                        for j in range(3)])
        edge, x = reference_dof_map(system.mesh)
        a = np.take(a0, edge) + np.take(a1, edge) * x
        b = np.take(b0, edge) + np.take(b1, edge) * x
        if kind == "colored":
            noise = colored_noise_operator(system, 1.0, seed=2026, n_modes=8)
            factor = colored_factor(system, 1.0, n_modes=8)
            covariance = factor @ factor.T
        else:
            noise = white_noise_model(system, seed=2026, lumped=kind == "lumped")
            G = system.mass.toarray()
            covariance = np.diag(G.sum(axis=1)) if kind == "lumped" else G
        config = SolverConfig(dt=dt, t_end=n_steps * dt, snapshot_stride=n_steps)
        problem = Problem(system, config, u0, None, diffusion, noise)
        finals = np.array([t.final_state() for t in run_trajectories(problem, range(n))])
        mean, variance = linear_multiplicative_moments(system, u0, dt, n_steps, a, b, covariance)
        assert system.ndof == 34
        # standard errors from the run itself; the variance's from the sample
        # fourth moment, since the multiplicative noise makes the state heavy-tailed
        deviations = finals - finals.mean(axis=0)
        m2, m4 = (deviations ** 2).mean(axis=0), (deviations ** 4).mean(axis=0)
        z_mean = (finals.mean(axis=0) - mean) / np.sqrt(m2 / n)
        z_var = (finals.var(axis=0, ddof=1) - variance) / np.sqrt((m4 - m2 ** 2) / n)
        assert np.abs(z_mean).max() < 4.0
        assert np.abs(z_var).max() < 4.0

    def test_standard_error_shrinks_with_doubling(self):
        problem = heat_noise_problem(n_int=4, dt=2e-3, t_end=0.2, seed=3)
        trajs = run_trajectories(problem, range(128))
        sups = np.array([t.sup_norm ** 4 for t in trajs])
        se_64 = sups[:64].std() / np.sqrt(64)
        se_128 = sups.std() / np.sqrt(128)
        assert 1.1 <= se_64 / se_128 <= 1.8

    def test_requires_two_trajectories(self):
        with pytest.raises(ConfigurationError):
            monte_carlo(heat_noise_problem(), n_trajectories=1)

    @pytest.mark.parametrize("q, quantiles, match", [
        (float("nan"), (0.5,), "got nan"),
        (0.0, (0.5,), "got 0.0"),
        (-2.0, (0.5,), "got -2.0"),
        (float("inf"), (0.5,), "got inf"),
        (4.0, (1.5,), r"\[1.5\]"),
        (4.0, (0.5, -0.1, 1.0), r"\[-0.1\]"),
        (4.0, (float("nan"),), r"\[nan\]"),
    ])
    def test_moment_and_quantiles_checked_before_marching(self, q, quantiles, match,
                                                          monkeypatch):
        monkeypatch.setattr(Stepper, "march", _refuse_march)
        with pytest.raises(ConfigurationError, match=match):
            monte_carlo(heat_noise_problem(), n_trajectories=2, q=q, quantiles=quantiles)

    def test_trajectories_follow_requested_ids(self):
        problem = heat_noise_problem(t_end=0.05, seed=13)
        trajs = run_trajectories(problem, [5, 0, 3])
        assert [t.trajectory_id for t in trajs] == [5, 0, 3]
        for i, traj in zip([5, 0, 3], trajs):
            assert np.array_equal(traj.states, simulate_path(problem, i).states)


def reference_strong_order_errors(problem, ladder, n_trajectories, norm_fn):
    """Per-level mean errors from a hand-written stepping loop per ladder
    level, the way the estimator marched before it shared simulate_path."""
    ladder = np.sort(np.asarray(ladder, dtype=float))
    dt_ref = float(ladder[0])
    ratios = np.round(ladder[1:] / dt_ref).astype(int)
    t_end = problem.config.t_end
    steppers = {float(dt): Stepper(problem.with_config(dt=float(dt))) for dt in ladder}

    def final_state(dt, sampler):
        u = np.asarray(problem.initial, dtype=float).copy()
        stepper = steppers[float(dt)]
        for step in range(int(round(t_end / dt))):
            u = stepper.step(u, step * dt, sampler(step))
        return u

    all_errs = []
    for traj_id in range(n_trajectories):
        reference = final_state(dt_ref, IncrementSampler(problem.noise, traj_id, dt_ref,
                                                         int(round(t_end / dt_ref))))
        errs = np.empty(ratios.size)
        for i, (dt, ratio) in enumerate(zip(ladder[1:], ratios)):
            sampler = coupled_sampler(problem.noise, traj_id, int(ratio),
                                      int(round(t_end / dt)), float(dt))
            errs[i] = norm_fn(final_state(float(dt), sampler) - reference)
        all_errs.append(errs)
    return np.mean(np.stack(all_errs), axis=0)


class TestBoundaryCounts:
    """How often a march crosses ``Stepper.step`` and
    ``IncrementSampler.__call__`` per trajectory.  The benchmark's traced
    run expects these counts exactly, so an engine that changes them must
    change the benchmark first."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"step": 0, "draw": 0}
        for owner, attr, key in ((Stepper, "step", "step"), (IncrementSampler, "__call__", "draw")):
            def counted(*args, _original=getattr(owner, attr), _key=key, **kwargs):
                counts[_key] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, attr, counted)
        return counts

    def test_simulate_path_steps_and_draws_once_per_step(self, calls):
        problem = heat_noise_problem(t_end=0.05)
        simulate_path(problem, 3)
        assert calls == {"step": 50, "draw": 50}

    def test_strong_order_calls_sampler_per_fine_step_per_level(self, calls):
        # pins calls, not regenerations: the fine stream is drawn once per
        # trajectory, yet every level calls the sampler once per fine step, so
        # per trajectory len(ladder) * n_fine calls and sum(n_l) steps
        problem = heat_noise_problem(n_int=4, t_end=0.0625, seed=4)
        n_steps = [128, 32, 16, 8]
        estimate_strong_order(problem, 0.0625 / np.array(n_steps, dtype=float), n_trajectories=2)
        assert calls["draw"] == 2 * len(n_steps) * max(n_steps)
        assert calls["step"] == 2 * sum(n_steps)


class TestStrongOrder:
    LADDER = 0.0625 / np.array([256.0, 32.0, 16.0, 8.0])

    # the last two ladders' coarse dt/ratio is not the finest dt in floating
    # point (3e-4/3 == 9.999999999999999e-05); in the last, sqrt(9.1e-3/7)
    # is not sqrt(1.3e-3) either, so each level must scale by its own dt
    @pytest.mark.parametrize("scheme, kind, t_end, ladder", [
        pytest.param("semi_implicit_tamed", "white", 0.0625, LADDER, id="semi_implicit_tamed"),
        pytest.param("semi_implicit_plain", "white", 0.0625, LADDER, id="semi_implicit_plain"),
        pytest.param("semi_implicit_tamed", "colored", 0.0625, LADDER, id="colored"),
        pytest.param("semi_implicit_tamed", "white", 0.0288,
                     np.array([1e-4, 3e-4, 6e-4, 1.2e-3]), id="coarse_dt_off_the_finest"),
        pytest.param("semi_implicit_tamed", "white", 0.0728,
                     np.array([1.3e-3, 2.6e-3, 5.2e-3, 9.1e-3]),
                     id="coarse_sqrt_dt_off_the_finest"),
    ])
    def test_values_match_reference_loop(self, scheme, kind, t_end, ladder):
        drift = polynomial_drift(1, [0.0, 1.0, 0.0, 1.0], n_edges=1)
        problem = heat_noise_problem(n_int=6, t_end=t_end, seed=4, drift=drift)
        problem = problem.with_config(scheme=scheme)
        if kind == "colored":
            noise = colored_noise_operator(problem.system, decay=1.5, seed=4, n_modes=5)
            problem = dataclasses.replace(problem, noise=noise)
        est = estimate_strong_order(problem, ladder, n_trajectories=3)
        expected = reference_strong_order_errors(problem, ladder, 3, problem.system.e2_norm)
        assert np.array_equal(est.values, expected)

    def test_diffusion_without_noise_rejected(self):
        problem = heat_noise_problem()
        with pytest.raises(ConfigurationError, match="supplied together"):
            bad = Problem(problem.system, problem.config, problem.initial,
                          None, problem.diffusion, None)
            estimate_strong_order(bad, 0.25 / np.array([256.0, 32.0, 16.0, 8.0]),
                                  n_trajectories=1)

    def test_zero_trajectories_rejected_before_marching(self, monkeypatch):
        def march(*args, **kwargs):
            raise AssertionError("trajectories marched before their count was checked")

        monkeypatch.setattr(Stepper, "march", march)
        problem = heat_noise_problem(dt=1e-3, t_end=0.064)
        with pytest.raises(ConfigurationError, match="at least one trajectory"):
            estimate_strong_order(problem, [2.5e-4, 1e-3, 2e-3, 4e-3], n_trajectories=0)

    def test_deterministic_linear_drift_first_order(self):
        # explicit linear reaction, no noise: global order 1 in dt
        graph = build_graph(2, [(1, 2)])
        fields = build_edge_fields(1)
        system = assemble_form(build_mesh(graph, 5), fields, VertexMatrix(-np.eye(2)))
        drift = polynomial_drift(0, [0.0, 1.0], n_edges=1, lower_bound=0.5, upper_bound=2.0)
        u0 = interpolate(system.mesh, lambda x: 1.0 + np.sin(np.pi * x))
        cfg = SolverConfig(dt=1e-3, t_end=0.25)
        problem = Problem(system, cfg, u0, drift)
        ladder = 0.25 / np.array([4096.0, 128.0, 64.0, 32.0, 16.0])
        est = estimate_strong_order(problem, ladder, n_trajectories=1)
        assert est.estimate == pytest.approx(1.0, abs=0.1)

    def test_unknown_norm_rejected(self):
        problem = heat_noise_problem()
        with pytest.raises(ConfigurationError, match="unknown norm 'L1'"):
            estimate_strong_order(problem, [1e-3, 2e-3, 5e-3, 1e-2], n_trajectories=2,
                                  norm="L1")

    def test_ladder_too_short(self):
        problem = heat_noise_problem()
        with pytest.raises(LadderTooShort):
            estimate_strong_order(problem, [1e-3, 2e-3, 4e-3], n_trajectories=2)

    def test_non_nested_ladder_rejected(self):
        problem = heat_noise_problem()
        with pytest.raises(ConfigurationError):
            estimate_strong_order(problem, [1e-3, 2.5e-3, 5e-3, 1e-2], n_trajectories=2)

    def test_additive_noise_quarter_order(self):
        # the delta_t^(1/4) regime needs the mesh mode cutoff well above 1/dt
        problem = heat_noise_problem(n_int=24, t_end=0.128, seed=17)
        ladder = 0.128 / np.array([4096.0, 128.0, 64.0, 32.0, 16.0])
        est = estimate_strong_order(problem, ladder, n_trajectories=32)
        assert 0.15 <= est.estimate <= 0.40
        assert est.r_squared > 0.9

class _Marched(Exception):
    """Raised in place of a march: the estimator accepted its time grid."""


def _refuse_march(*args, **kwargs):
    raise _Marched


_ESTIMATORS = {
    "monte_carlo": lambda problem, count: monte_carlo(problem, count),
    "holder": lambda problem, count: estimate_holder_exponent(
        problem, np.array([4, 8, 16, 32]) * 1e-3, count),
    "strong_order": lambda problem, count: estimate_strong_order(
        problem, [2.5e-4, 1e-3, 2e-3, 4e-3], count),
}


@pytest.mark.parametrize("estimator", sorted(_ESTIMATORS))
@pytest.mark.parametrize("count", [2.5, 2.0, True, "2"])
def test_trajectory_count_must_be_an_integer(estimator, count, monkeypatch):
    monkeypatch.setattr(Stepper, "march", _refuse_march)
    with pytest.raises(ConfigurationError,
                       match=f"trajectory count must be an integer, got {count!r}"):
        _ESTIMATORS[estimator](heat_noise_problem(t_end=0.064), count)


def test_numpy_integer_trajectory_count_accepted():
    problem = heat_noise_problem(t_end=0.01)
    stats = monte_carlo(problem, np.int64(2))
    assert stats.n_trajectories == 2
    assert np.array_equal(stats.mean, monte_carlo(problem, 2).mean)


def test_trajectory_ids_must_be_integers():
    with pytest.raises(ConfigurationError, match="trajectory id must be an integer, got 1.5"):
        run_trajectories(heat_noise_problem(t_end=0.01), [1.5])


class TestTimeGrid:
    """The whole-multiple rule at its four sites, and the estimators' grid
    errors, which come before the first step."""

    @pytest.fixture
    def steps(self, monkeypatch):
        calls = []
        original = Stepper.step

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(Stepper, "step", counted)
        return calls

    @staticmethod
    def check_site(site, off, monkeypatch):
        """Run ``site`` on a grid whose checked duration is off by the
        relative amount ``off``; _Marched or a value when it is accepted."""
        stretch = 1.0 + off
        if site == "t_end/dt":
            return SolverConfig(1e-3, 0.2 * stretch).n_steps
        if site == "lags/dt":
            monkeypatch.setattr(Stepper, "march", _refuse_march)
            return estimate_holder_exponent(heat_noise_problem(t_end=0.2),
                                            [4e-3 * stretch, 8e-3, 16e-3, 32e-3], 1)
        if site == "lags/spacing":
            times = 1e-3 * np.arange(301)
            paths = list(np.random.default_rng(1).standard_normal((2, times.size, 3)))
            return holder_exponent_from_paths(times, paths, [2e-3 * stretch, 4e-3, 8e-3, 16e-3])
        monkeypatch.setattr(Stepper, "march", _refuse_march)
        dt = 0.0625 / 256
        return estimate_strong_order(heat_noise_problem(t_end=0.0625),
                                     [dt, 4 * dt * stretch, 8 * dt, 16 * dt], 1)

    @pytest.mark.parametrize("site", ["t_end/dt", "lags/dt", "lags/spacing", "ladder/finest"])
    def test_whole_multiple_tolerance(self, site, monkeypatch):
        try:
            self.check_site(site, 1e-11, monkeypatch)
        except _Marched:
            pass
        with pytest.raises(ConfigurationError, match="whole number"):
            self.check_site(site, 1e-7, monkeypatch)

    # lags in units of dt = 1e-3 on t_end = 0.2 unless the case changes t_end
    @pytest.mark.parametrize("t_end, lags, burn_fraction, error, match", [
        (0.2, [4, 8, 16], 0.25, LadderTooShort, "got 3"),
        (0.2, [8, 4, 16, 32], 0.25, ConfigurationError, "increasing"),
        (0.2, [4.5, 8, 16, 32], 0.25, InsufficientResolution, "whole number"),
        (0.2, [2, 4, 8, 16], 0.25, InsufficientResolution, "at least 4x"),
        (0.2, [4, 8, 16, 160], 0.25, InsufficientResolution, "burn-in"),
        (0.2, [4, 8, 16, 32], -0.5, ConfigurationError, "-0.5"),
        (0.2, [4, 8, 16, 32], float("nan"), ConfigurationError, "nan"),
        (0.2005, [4, 8, 16, 32], 0.25, ConfigurationError, "t_end"),
        (0.201, [4, 8, 16, 32], 0.25, InsufficientResolution, "stride of 4 steps .* 201 steps"),
    ], ids=["short_ladder", "unordered", "lag_off_grid", "lag_below_4dt", "burn_in",
            "negative_burn_fraction", "nan_burn_fraction", "t_end_off_grid",
            "stride_not_dividing_steps"])
    def test_holder_grid_errors_come_before_the_first_step(self, steps, t_end, lags,
                                                           burn_fraction, error, match):
        problem = heat_noise_problem(dt=1e-3, t_end=t_end)
        with pytest.raises(error, match=match):
            estimate_holder_exponent(problem, np.array(lags) * 1e-3, n_trajectories=2,
                                     burn_fraction=burn_fraction)
        assert steps == []

    # ladders in units of 1e-3 on t_end = 0.064
    @pytest.mark.parametrize("ladder, error, match", [
        ([1, 2, 4], LadderTooShort, "got 3"),
        ([1, 2.5, 4, 8], ConfigurationError, "whole number"),
        ([1, 1, 2, 4], ConfigurationError, "at least twice"),
        ([1, 3, 6, 12], ConfigurationError, "t_end"),
        ([1.5, 3, 6, 12], ConfigurationError, "t_end"),
    ], ids=["short_ladder", "not_nested", "repeated_step", "level_off_t_end",
            "finest_off_t_end"])
    def test_strong_order_grid_errors_come_before_the_first_step(self, steps, ladder, error,
                                                                 match):
        problem = heat_noise_problem(dt=1e-3, t_end=0.064)
        with pytest.raises(error, match=match):
            estimate_strong_order(problem, np.array(ladder) * 1e-3, n_trajectories=2)
        assert steps == []

    def test_holder_grid_check_builds_no_array_over_every_step(self, steps):
        # 2e7 steps: one float per step would take 160 MB
        problem = heat_noise_problem(dt=1e-7, t_end=2.0)
        tracemalloc.start()
        try:
            with pytest.raises(InsufficientResolution, match="burn-in"):
                estimate_holder_exponent(problem, [0.25, 0.5, 1.0, 1.9], n_trajectories=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert steps == []

    def test_paths_need_two_snapshots(self):
        with pytest.raises(InsufficientResolution, match="got 1"):
            holder_exponent_from_paths([0.0], [np.zeros((1, 3))], [1e-3, 2e-3, 4e-3, 8e-3])

    @pytest.mark.parametrize("bad", [0, 5, 100])
    def test_nan_snapshot_time_is_not_uniform_spacing(self, bad):
        times = 1e-3 * np.arange(101)
        times[bad] = np.nan
        with pytest.raises(ConfigurationError, match="uniformly spaced"):
            holder_exponent_from_paths(times, [np.ones((101, 2))], [1e-3, 2e-3, 4e-3, 8e-3])

    def test_paths_need_one_path(self):
        with pytest.raises(ConfigurationError, match="got 0"):
            holder_exponent_from_paths(1e-3 * np.arange(101), [], [1e-3, 2e-3, 4e-3, 8e-3])


class TestVertexResidual:
    def test_constant_conserved_state_has_zero_residual(self):
        graph = build_graph(3, [(1, 2), (2, 3)])
        fields = build_edge_fields(2, weights=[2.0, 1.0])
        M = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
        system = assemble_form(build_mesh(graph, 4), fields, VertexMatrix(M))
        u = np.full(system.ndof, 2.0)
        traj = TrajectorySet(np.array([0.0]), u[None, :], 2.0)
        assert np.all(vertex_residual(traj, system) == 0.0)

    def test_robin_eigenmode_residual_first_order(self):
        _, omegas = robin_eigenvalues(1)
        mode = robin_eigenfunction(omegas[0])
        graph = build_graph(2, [(1, 2)])
        residuals = []
        for n_int in (15, 31, 63):
            system = assemble_form(build_mesh(graph, n_int), build_edge_fields(1),
                                   VertexMatrix(-np.eye(2)))
            u = interpolate(system.mesh, mode)
            traj = solve_heat(system, u, horizon=0.01, dt=0.01)
            residuals.append(vertex_residual(traj, system)[0])
        rates = np.diff(np.log(residuals)) / np.log(0.5)
        assert np.all(rates > 0.9)

    def test_matches_weighted_incidence_oracle(self):
        rng = np.random.default_rng(20261019)
        for _ in range(200):
            mesh = random_multigraph_mesh(rng)
            n, m = mesh.graph.n_vertices, mesh.n_edges
            mu = rng.uniform(0.1, 10.0, m)
            ends = rng.uniform(0.1, 10.0, (m, 2))
            # c_j(x) = a + (b - a) x, so c_j(0) = a exactly
            fields = build_edge_fields(m, [f"{a!r} + {b - a!r}*x" for a, b in ends.tolist()],
                                       weights=mu)
            ends = [(float(c(0.0)), float(c(1.0))) for c in fields.conductance]
            off = rng.uniform(0.0, 1.0, (n, n))
            off = off + off.T
            M = off - np.diag(off.sum(axis=1) + 1.0)
            system = assemble_form(mesh, fields, VertexMatrix(M))
            states = rng.standard_normal((3, system.ndof))
            w_plus, w_minus = reference_weighted_incidence(mesh.graph, mu, ends)
            dofs = mesh.edge_dofs
            d_start = (states[:, dofs[:, 1]] - states[:, dofs[:, 0]]) / mesh.h
            d_end = (states[:, dofs[:, -1]] - states[:, dofs[:, -2]]) / mesh.h
            expected = np.abs(states[:, mesh.vertex_dofs] @ M.T + d_start @ w_plus.T
                              - d_end @ w_minus.T).max(axis=1)
            got = vertex_residual(TrajectorySet(np.arange(3.0), states, 0.0), system)
            assert got.tobytes() == expected.tobytes()

    def test_stochastic_residual_is_finite_but_not_small(self):
        problem = heat_noise_problem(t_end=0.05)
        traj = simulate_path(problem)
        series = vertex_residual(traj, problem.system)
        assert np.all(np.isfinite(series))


def test_energy_functional_value():
    # single edge, u == 0, beta = 1: energy is mu * int H(0) = mu * beta^4/4
    graph = build_graph(2, [(1, 2)])
    fields = build_edge_fields(1, weights=2.0)
    system = assemble_form(build_mesh(graph, 4), fields, VertexMatrix(-np.eye(2)))
    value = allen_cahn_energy(system, 1.0, np.zeros(system.ndof))
    assert value == pytest.approx(2.0 * 0.25)


def test_energy_matches_reference_gauss_loop():
    # the quadrature loop allen_cahn_energy carried before it shared
    # mesh.edge_integral; the energies must stay float-identical
    system = assemble_form(build_mesh(build_graph(4, [(1, 2), (1, 3), (1, 4)]), 9),
                           build_edge_fields(3, weights=[1.0, 2.5, 0.75]),
                           VertexMatrix(-np.eye(4)))
    mesh, h, beta = system.mesh, system.mesh.h, 1.3
    state = np.random.default_rng(11).standard_normal(system.ndof)
    well = 0.0
    for j in range(mesh.n_edges):
        nodes = state[mesh.edge_dofs[j]]
        left, right = nodes[:-1], nodes[1:]
        acc = 0.0
        for xi in (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)):
            vals = (1.0 - xi) * left + xi * right
            acc += 0.5 * h * np.sum(0.25 * (vals ** 2 - beta ** 2) ** 2)
        well += system.fields.weights[j] * acc
    quad_part = 0.5 * float(state @ ((system.stiffness_potential + system.vertex_coupling)
                                     @ state))
    assert allen_cahn_energy(system, beta, state) == quad_part + well


def test_e2_norm_rows_matches_system_norm():
    problem = heat_noise_problem(n_int=3)
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((4, problem.system.ndof))
    fn = e2_norm_rows(problem.system)
    np.testing.assert_allclose(fn(rows), [problem.system.e2_norm(r) for r in rows],
                               atol=1e-12)
