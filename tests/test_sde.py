from dataclasses import replace

import numpy as np
import pytest

from netsde.analysis import allen_cahn_energy, estimate_strong_order
from netsde.assembly import assemble_form
from netsde.errors import (
    BlowupDetected,
    ConfigurationError,
    DimensionMismatch,
    LinearSolveFailure,
)
from netsde.expressions import parse_expression
from netsde.fields import (
    DiffusionSpec,
    allen_cahn_system,
    as_edge_function,
    build_diffusion,
    build_edge_fields,
    polynomial_drift,
)
from netsde.graph import VertexMatrix, build_graph
from netsde.mesh import build_mesh, interpolate
from netsde.noise import IncrementSampler, white_noise_model
from netsde.sde import (
    Problem,
    SolverConfig,
    Stepper,
    nodal_diffusion_evaluator,
    nodal_drift_evaluator,
    simulate_path,
    solve_heat,
)

from _oracles import (
    backward_euler_heat,
    random_multigraph_mesh,
    reference_dof_map,
    reference_nodal_diffusion,
    reference_nodal_drift,
    reference_simulate_path,
)


def conserved_heat_system(n_int=4):
    graph = build_graph(3, [(1, 2), (2, 3)])
    fields = build_edge_fields(2, weights=[2.0, 1.0])
    M = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
    return assemble_form(build_mesh(graph, n_int), fields, VertexMatrix(M))


STAR_CONSERVED_M = np.array([
    [-3.0, 1.0, 1.0, 1.0],
    [1.0, -1.0, 0.0, 0.0],
    [1.0, 0.0, -1.0, 0.0],
    [1.0, 0.0, 0.0, -1.0],
])


def allen_cahn_problem(n_int=6, dt=1e-3, t_end=0.1, betas=(1.0, 1.0, 1.0), scheme="semi_implicit_tamed",
                       noise_seed=None, initial=0.2, conserved=False):
    graph = build_graph(4, [(1, 2), (1, 3), (1, 4)])
    base = build_edge_fields(3)
    spec = allen_cahn_system(list(betas), base)
    mesh = build_mesh(graph, n_int)
    M = STAR_CONSERVED_M if conserved else -np.eye(4)
    system = assemble_form(mesh, spec.fields, VertexMatrix(M))
    diffusion = noise = None
    if noise_seed is not None:
        diffusion = build_diffusion(3, 1.0)
        noise = white_noise_model(system, seed=noise_seed)
    u0 = interpolate(mesh, initial)
    cfg = SolverConfig(dt=dt, t_end=t_end, scheme=scheme)
    return Problem(system, cfg, u0, spec.drift, diffusion, noise), spec


class TestEmStep:
    def test_pure_heat_step_is_backward_euler(self):
        sys = conserved_heat_system()
        rng = np.random.default_rng(1)
        u = rng.standard_normal(sys.ndof)
        stepped = Stepper(Problem(sys, SolverConfig(0.01, 0.01), u)).step(u, 0.0, None)
        _, states, _ = backward_euler_heat(sys, u, horizon=0.01, dt=0.01)
        np.testing.assert_allclose(stepped, states[-1], atol=1e-13)

    def test_constant_state_preserved_in_conserved_config(self):
        sys = conserved_heat_system()
        u = np.full(sys.ndof, 3.0)
        stepped = Stepper(Problem(sys, SolverConfig(0.05, 0.05), u)).step(u, 0.0, None)
        np.testing.assert_allclose(stepped, u, atol=1e-12)

    def test_well_bottom_is_fixed_point(self):
        problem, spec = allen_cahn_problem(betas=(2.0, 2.0, 2.0), initial=2.0, conserved=True)
        u = problem.initial
        # rho = 0, the potential is unshifted, f(beta) = 0: u stays at beta
        stepper = Stepper(problem.with_config(dt=0.01))
        stepped = stepper.step(u, 0.0, None)
        np.testing.assert_allclose(stepped, u, atol=1e-12)

    def test_one_step_gaussian_moments_match_dense_oracle(self):
        # additive noise, no drift: u1 = (G - dt A)^{-1} (G u0 + dW)
        sys = conserved_heat_system(n_int=3)
        dt = 0.02
        noise = white_noise_model(sys, seed=42)
        diffusion = build_diffusion(2, 1.0)
        u0 = interpolate(sys.mesh, lambda x: np.sin(np.pi * x))
        G = sys.mass.toarray()
        Minv = np.linalg.inv(G - dt * sys.form_matrix.toarray())
        mean_oracle = Minv @ (G @ u0)
        cov_oracle = dt * Minv @ G @ Minv.T
        stepper = Stepper(Problem(sys, SolverConfig(dt, dt), u0, diffusion=diffusion, noise=noise))
        n_rep = 20000
        outs = np.empty((n_rep, sys.ndof))
        for rep in range(n_rep):
            dW = IncrementSampler(noise, rep, dt, 1)(0)
            outs[rep] = stepper.step(u0, 0.0, dW)
        emp_mean = outs.mean(axis=0)
        emp_cov = np.cov(outs.T)
        mean_se = np.sqrt(np.diag(cov_oracle) / n_rep)
        assert np.all(np.abs(emp_mean - mean_oracle) <= 4.0 * mean_se)
        cov_se = np.sqrt((np.outer(np.diag(cov_oracle), np.diag(cov_oracle))
                          + cov_oracle ** 2) / n_rep)
        assert np.all(np.abs(emp_cov - cov_oracle) <= 4.5 * cov_se)


class TestSimulatePath:
    def test_zero_noise_matches_deterministic_solver(self):
        sys = conserved_heat_system()
        u0 = interpolate(sys.mesh, [lambda x: x, lambda x: 1.0 + x * (1 - x)])
        cfg = SolverConfig(dt=0.01, t_end=0.5)
        problem = Problem(sys, cfg, u0)
        traj = simulate_path(problem)
        reference = solve_heat(sys, u0, horizon=0.5, dt=0.01)
        np.testing.assert_allclose(traj.final_state(), reference.final_state(), atol=1e-10)

    def test_constant_path_at_well_bottom(self):
        problem, _ = allen_cahn_problem(betas=(1.5, 1.5, 1.5), initial=1.5, conserved=True)
        traj = simulate_path(problem)
        np.testing.assert_allclose(traj.states, 1.5, atol=1e-10)

    def test_bitwise_reproducibility(self):
        problem, _ = allen_cahn_problem(noise_seed=11, t_end=0.02)
        a = simulate_path(problem, trajectory_id=3)
        b = simulate_path(problem, trajectory_id=3)
        assert np.array_equal(a.states, b.states)
        assert a.sup_norm == b.sup_norm

    def test_different_trajectories_differ(self):
        problem, _ = allen_cahn_problem(noise_seed=11, t_end=0.02)
        a = simulate_path(problem, trajectory_id=0)
        b = simulate_path(problem, trajectory_id=1)
        assert not np.array_equal(a.states, b.states)

    def test_vertex_continuity_is_structural(self):
        problem, _ = allen_cahn_problem(noise_seed=5, t_end=0.02)
        traj = simulate_path(problem)
        mesh = problem.system.mesh
        for snap in traj.states:
            # all three edges start at vertex 1: traces agree exactly
            v1 = snap[mesh.edge_dofs[0, 0]]
            assert snap[mesh.edge_dofs[1, 0]] == v1
            assert snap[mesh.edge_dofs[2, 0]] == v1

    def test_untamed_explodes_tamed_survives(self):
        kwargs = dict(n_int=2, dt=0.5, t_end=5.0, betas=(1.0, 1.0, 1.0), initial=50.0)
        plain, _ = allen_cahn_problem(scheme="semi_implicit_plain", **kwargs)
        with pytest.raises(BlowupDetected) as err:
            simulate_path(plain, trajectory_id=7)
        assert err.value.trajectory_id == 7
        tamed, _ = allen_cahn_problem(scheme="semi_implicit_tamed", **kwargs)
        traj = simulate_path(tamed)
        assert np.isfinite(traj.sup_norm)

    def test_non_finite_step_raises_linear_solve_failure(self):
        problem, _ = allen_cahn_problem(noise_seed=1, t_end=0.01)
        nan_noise = build_diffusion(3, lambda t, x, u: np.full_like(u, np.nan))
        with pytest.raises(LinearSolveFailure, match="trajectory 4 .* at step 1$"):
            simulate_path(replace(problem, diffusion=nan_noise), trajectory_id=4)

    def test_strong_order_ladder_honours_blowup_guard(self):
        plain, _ = allen_cahn_problem(scheme="semi_implicit_plain", n_int=2, dt=0.5,
                                      t_end=5.0, betas=(1.0, 1.0, 1.0), initial=50.0)
        with pytest.raises(BlowupDetected) as err:
            estimate_strong_order(plain, [0.0625, 0.125, 0.25, 0.5], n_trajectories=1)
        assert err.value.trajectory_id == 0

    def test_snapshot_stride(self):
        problem, _ = allen_cahn_problem(t_end=0.01, dt=1e-3)
        problem = problem.with_config(snapshot_stride=5)
        traj = simulate_path(problem)
        np.testing.assert_allclose(traj.times, [0.0, 0.005, 0.01])

    # 10 steps: every step, only the last, beyond the last, and a stride
    # that does not divide the step count
    @pytest.mark.parametrize("stride", [1, 10, 13, 3])
    def test_snapshots_match_reference_loop(self, stride):
        problem, _ = allen_cahn_problem(noise_seed=3, t_end=0.01, dt=1e-3)
        problem = problem.with_config(snapshot_stride=stride)
        traj = simulate_path(problem, trajectory_id=2)
        times, states, sup = reference_simulate_path(problem, trajectory_id=2)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)
        assert traj.sup_norm == sup

    @pytest.mark.parametrize("changes", [
        {"blowup_guard": float("nan")}, {"blowup_guard": 0.0}, {"blowup_guard": -1.0},
        {"snapshot_stride": 0}, {"snapshot_stride": 2.5}, {"snapshot_stride": True},
    ], ids=["nan_guard", "zero_guard", "negative_guard", "zero_stride", "fractional_stride",
            "bool_stride"])
    def test_solver_config_rejects_invalid_field(self, changes):
        with pytest.raises(ConfigurationError):
            SolverConfig(1e-3, 1e-2, **changes)

    def test_solver_config_rejects_infinite_t_end(self):
        with pytest.raises(ConfigurationError, match="t_end=inf"):
            SolverConfig(1e-3, float("inf")).n_steps

    def test_solver_config_accepts_infinite_guard_and_numpy_stride(self):
        cfg = SolverConfig(1e-3, 1e-2, snapshot_stride=np.int64(5), blowup_guard=np.inf)
        assert cfg.snapshot_stride == 5 and cfg.blowup_guard == np.inf

    @pytest.mark.parametrize("solver", [solve_heat], ids=["backward_euler"])
    def test_solve_heat_rejects_zero_stride(self, solver):
        sys = conserved_heat_system()
        with pytest.raises(ConfigurationError, match="snapshot_stride"):
            solver(sys, np.zeros(sys.ndof), horizon=0.2, dt=0.05, snapshot_stride=0)

    def test_noise_without_diffusion_rejected(self):
        problem, _ = allen_cahn_problem(noise_seed=1, t_end=0.01)
        with pytest.raises(ConfigurationError):
            bad = Problem(problem.system, problem.config, problem.initial,
                          problem.drift, None, problem.noise)
            simulate_path(bad)

    # a 3-star with 8 interior nodes per edge: 3 edges, 28 dofs
    @pytest.mark.parametrize("part, error, match", [
        ("short_initial", DimensionMismatch, r"initial state has shape \(27,\), .* 28 dofs"),
        ("nan_initial", ConfigurationError, "initial state is not finite at 1 of 28 dofs"),
        ("per_edge_drift", DimensionMismatch, "drift has 2 edges, the system has 3"),
        ("shared_drift", DimensionMismatch, "drift has 2 edges, the system has 3"),
        ("constant_diffusion", DimensionMismatch, "diffusion has 2 edges, the system has 3"),
        ("varying_diffusion", DimensionMismatch, "diffusion has 2 edges, the system has 3"),
        ("noise_of_other_system", DimensionMismatch, "noise factor has 31 rows, .* 28 dofs"),
    ], ids=["short_initial", "nan_initial", "per_edge_drift", "shared_drift",
            "constant_diffusion", "varying_diffusion", "noise_of_other_system"])
    def test_problem_rejects_parts_that_do_not_fit(self, part, error, match):
        problem, _ = allen_cahn_problem(n_int=8, noise_seed=1, t_end=0.01)
        assert problem.system.ndof == 28
        nan_initial = problem.initial.copy()
        nan_initial[5] = np.nan
        changes = {
            "short_initial": dict(initial=problem.initial[:27]),
            "nan_initial": dict(initial=nan_initial),
            "per_edge_drift": dict(drift=polynomial_drift(
                1, [[0.0, 1.0, 0.0, 1.0], [0.0, 2.0, 0.0, 1.0]], n_edges=2)),
            "shared_drift": dict(drift=polynomial_drift(1, [0.0, 1.0, 0.0, 1.0], n_edges=2)),
            "constant_diffusion": dict(diffusion=build_diffusion(2, 1.0)),
            "varying_diffusion": dict(diffusion=build_diffusion(2, "1+x")),
            "noise_of_other_system": dict(noise=white_noise_model(
                allen_cahn_problem(n_int=9)[0].system, seed=1)),
        }[part]
        with pytest.raises(error, match=match):
            replace(problem, **changes)


class TestStepperWithConfig:
    def test_off_grid_t_end_raises_before_set_up(self, monkeypatch):
        from netsde import sde

        def no_set_up(*args, **kwargs):
            raise AssertionError("set up before the time grid was checked")

        monkeypatch.setattr(sde, "arrowhead_solver", no_set_up)
        problem, _ = allen_cahn_problem(t_end=0.0105)
        with pytest.raises(ConfigurationError, match="t_end / dt"):
            Stepper(problem)

    def test_scheme_change_rejected(self):
        problem, _ = allen_cahn_problem(t_end=0.01)
        with pytest.raises(ConfigurationError, match="exponential_euler"):
            Stepper(problem.with_config(scheme="exponential_euler"))


class TestNodalDrift:
    @pytest.mark.parametrize("kind", ["allen_cahn", "per_edge_constants", "expressions",
                                      "degree_five"])
    def test_bytes_match_reference_evaluator(self, kind):
        mesh = build_mesh(build_graph(4, [(1, 2), (1, 3), (1, 4)]), 24)
        expr = lambda text: parse_expression(text, ("t", "x"))
        spec = {
            "allen_cahn": lambda: allen_cahn_system([1.0, 1.5, 0.5], build_edge_fields(3)).drift,
            "per_edge_constants": lambda: polynomial_drift(
                1, [[0.0, 1.0, 0.0, 1.0], [0.0, 2.0, 0.0, 1.0], [0.5, 1.0, -0.25, 1.5]],
                n_edges=3),
            "expressions": lambda: polynomial_drift(
                1, [0.0, expr("1 + x*(1 - x)"), 0.0, expr("1 + 0.5*sin(t)")], n_edges=3),
            "degree_five": lambda: polynomial_drift(
                2, [0.25, 1.0, 0.0, -0.5, 0.0, 2.0], n_edges=3),
        }[kind]()
        new = nodal_drift_evaluator(spec, mesh)
        old = reference_nodal_drift(spec, mesh)
        rng = np.random.default_rng(2024)
        for _ in range(50):
            t = float(rng.uniform(0.0, 1.0))
            u = 2.0 * rng.standard_normal(mesh.ndof)
            assert new(t, u).tobytes() == old(t, u).tobytes()


class TestNodalDiffusion:
    @pytest.mark.parametrize("kind", ["one", "zero", "per_edge_constants", "depends_on_u",
                                      "depends_on_x"])
    def test_bytes_match_reference_evaluator(self, kind):
        mesh = build_mesh(build_graph(4, [(1, 2), (1, 3), (1, 4)]), 24)
        expr = lambda text: parse_expression(text, ("t", "x", "u"))
        function = {
            "one": 1.0,
            "zero": expr("0"),
            "per_edge_constants": [1.0, 0.5, expr("2")],
            "depends_on_u": expr("0.5 + sin(u)"),
            "depends_on_x": [expr("1 + x*(1 - x)"), 1.0, expr("x")],
        }[kind]
        spec = build_diffusion(3, function)
        new = nodal_diffusion_evaluator(spec, mesh)
        old = reference_nodal_diffusion(spec, mesh)
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = float(rng.uniform(0.0, 1.0))
            u = 2.0 * rng.standard_normal(mesh.ndof)
            increment = rng.standard_normal(mesh.ndof)
            gamma = new(t, u)
            if kind in ("one", "zero"):
                assert isinstance(gamma, float)
            assert np.broadcast_to(gamma, u.shape).tobytes() == old(t, u).tobytes()
            assert (gamma * increment).tobytes() == (old(t, u) * increment).tobytes()

    def test_spec_without_constants_evaluates_per_edge(self):
        mesh = build_mesh(build_graph(4, [(1, 2), (1, 3), (1, 4)]), 5)
        spec = DiffusionSpec(tuple(as_edge_function(lambda t, x, u: np.full_like(u, 2.0),
                                                    ("t", "x", "u")) for _ in range(3)),
                             (), None)
        gamma = nodal_diffusion_evaluator(spec, mesh)(0.0, np.zeros(mesh.ndof))
        assert isinstance(gamma, np.ndarray)
        assert gamma.tobytes() == np.full(mesh.ndof, 2.0).tobytes()


def _multigraph_coefficient_cases(rng, m):
    """(drift, diffusion) pairs on m edges: x-dependent coefficients that
    differ between edges at shared vertices, so every vertex value shows
    which incident edge evaluated it; rows shared by every edge; equal
    constants given edge by edge; and constant rows with zero terms, and
    g = 0 next to g = -0, on some edges only."""
    drift_expr = lambda text: parse_expression(text, ("t", "x"))
    diffusion_expr = lambda text: parse_expression(text, ("t", "x", "u"))
    slopes = [float(a) for a in rng.uniform(-1.0, 1.0, m)]
    a = slopes[0]
    return [
        (polynomial_drift(1, [[0.0, drift_expr(f"1 + ({b!r})*x"), 0.0, 1.0] for b in slopes],
                          n_edges=m),
         build_diffusion(m, [diffusion_expr(f"1 + ({b!r})*x*sin(u)") for b in slopes])),
        (polynomial_drift(1, [0.25, drift_expr(f"1 + ({a!r})*x"), 0.0,
                              drift_expr("1 + 0.5*sin(t)")], n_edges=m),
         build_diffusion(m, diffusion_expr(f"1 + 0.1*u + ({a!r})*x"))),
        (polynomial_drift(1, [[0.0, 1.0, 0.0, 1.0] for _ in range(m)], n_edges=m),
         build_diffusion(m, [0.5 for _ in range(m)])),
        (polynomial_drift(1, [[0.0, 1.0, 0.0, 1.0] if j % 2 else [0.5, 0.0, -0.25, 1.5]
                              for j in range(m)], n_edges=m),
         build_diffusion(m, [["0", "-0", "2"][j % 3] for j in range(m)])),
    ]


def test_per_edge_evaluators_match_reference_on_multigraphs():
    rng = np.random.default_rng(11)
    for _ in range(100):
        mesh = random_multigraph_mesh(rng)
        t = float(rng.uniform(0.0, 1.0))
        u = rng.standard_normal(mesh.ndof)
        increment = rng.standard_normal(mesh.ndof)
        for drift, diffusion in _multigraph_coefficient_cases(rng, mesh.n_edges):
            assert (nodal_drift_evaluator(drift, mesh)(t, u).tobytes()
                    == reference_nodal_drift(drift, mesh)(t, u).tobytes())
            gamma = nodal_diffusion_evaluator(diffusion, mesh)(t, u)
            expected = reference_nodal_diffusion(diffusion, mesh)(t, u)
            assert np.broadcast_to(gamma, u.shape).tobytes() == expected.tobytes()
            assert (gamma * increment).tobytes() == (expected * increment).tobytes()


def test_shared_coefficient_runs_once_per_step():
    # a 30-edge star whose edges all share one drift row and one g
    n_edges = 30
    graph = build_graph(n_edges + 1, [(1, k) for k in range(2, n_edges + 2)])
    system = assemble_form(build_mesh(graph, 9), build_edge_fields(n_edges),
                           VertexMatrix(-np.eye(n_edges + 1)))
    calls = {"drift": 0, "diffusion": 0}

    def drift_coefficient(t, x):
        calls["drift"] += 1
        return 1.0 + x

    def noise_coefficient(t, x, u):
        calls["diffusion"] += 1
        return 1.0 + 0.1 * u

    problem = Problem(system, SolverConfig(1e-3, 1e-3), np.full(system.ndof, 0.5),
                      polynomial_drift(1, [0.0, drift_coefficient, 0.0, 1.0], n_edges=n_edges),
                      build_diffusion(n_edges, noise_coefficient),
                      white_noise_model(system, seed=3))
    stepper = Stepper(problem)
    stepper.step(problem.initial, 0.0, IncrementSampler(problem.noise, 0, 1e-3, 1)(0))
    assert calls == {"drift": 1, "diffusion": 1}


def test_repeated_expression_text_runs_once_per_step(monkeypatch):
    # every edge lists its own copy of one text: one group, not one per edge
    from netsde import expressions

    calls = []

    def counting_abs(values):
        calls.append(1)
        return np.abs(values)

    monkeypatch.setitem(expressions.FUNCTIONS, "abs", counting_abs)
    mesh = build_mesh(build_graph(4, [(1, 2), (1, 3), (1, 4)]), 5)
    diffusion = nodal_diffusion_evaluator(build_diffusion(3, ["1 + 0.1*abs(u)"] * 3), mesh)
    drift = nodal_drift_evaluator(
        polynomial_drift(1, [["abs(x)", "0", "0", "1"] for _ in range(3)], n_edges=3), mesh)
    u = np.linspace(-1.0, 1.0, mesh.ndof)
    diffusion(0.0, u)
    assert len(calls) == 1
    drift(0.0, u)
    assert len(calls) == 2


class TestEnergyDecay:
    def test_deterministic_energy_nonincreasing(self):
        problem, spec = allen_cahn_problem(
            n_int=8, dt=1e-3, t_end=1.0, betas=(1.0, 2.0, 1.5),
            initial=[lambda x: 0.5 * np.cos(np.pi * x),
                     lambda x: 0.5 * np.cos(2 * np.pi * x),
                     lambda x: 0.5 - 0.2 * x])
        traj = simulate_path(problem)
        energies = np.array([allen_cahn_energy(problem.system, spec.beta, s)
                             for s in traj.states])
        increases = np.diff(energies) > 1e-12 * (1.0 + np.abs(energies[:-1]))
        assert increases.mean() < 1e-3

    def test_energy_decay_against_fine_step_oracle(self):
        # the coarse-step energy path stays close to a 4x finer gradient flow
        coarse, spec = allen_cahn_problem(n_int=6, dt=2e-3, t_end=0.25, initial=0.4)
        fine, _ = allen_cahn_problem(n_int=6, dt=5e-4, t_end=0.25, initial=0.4)
        e_coarse = allen_cahn_energy(coarse.system, spec.beta,
                                     simulate_path(coarse).final_state())
        e_fine = allen_cahn_energy(fine.system, spec.beta,
                                   simulate_path(fine).final_state())
        assert e_coarse == pytest.approx(e_fine, rel=5e-3)

    def test_moment_stability_under_step_refinement(self):
        sups = []
        for dt in (2e-3, 1e-3):
            problem, _ = allen_cahn_problem(n_int=4, dt=dt, t_end=0.05, noise_seed=3)
            sup_q = np.mean([simulate_path(problem, i).sup_norm ** 4 for i in range(24)])
            sups.append(sup_q)
        assert 0.5 <= sups[0] / sups[1] <= 2.0
