from dataclasses import replace

import numpy as np
import pytest

from netsde.analysis import allen_cahn_energy, estimate_strong_order
from netsde.assembly import assemble_form
from netsde.errors import BlowupDetected, ConfigurationError, LinearSolveFailure
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
from netsde.mesh import build_mesh, eval_state, interpolate
from netsde.noise import IncrementSampler, white_noise_model
from netsde.sde import (
    Problem,
    SolverConfig,
    Stepper,
    nodal_diffusion_evaluator,
    nodal_drift_evaluator,
    simulate_path,
)
from netsde.semigroup import generalized_eigs, solve_heat

from _oracles import (
    backward_euler_heat,
    random_multigraph_mesh,
    reference_dof_map,
    three_term_exponential_step,
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
        stepped = Stepper(sys, 0.01, "semi_implicit_tamed").step(u, 0.0, None)
        _, states, _ = backward_euler_heat(sys, u, horizon=0.01, dt=0.01)
        np.testing.assert_allclose(stepped, states[-1], atol=1e-13)

    def test_constant_state_preserved_in_conserved_config(self):
        sys = conserved_heat_system()
        u = np.full(sys.ndof, 3.0)
        stepped = Stepper(sys, 0.05, "semi_implicit_tamed").step(u, 0.0, None)
        np.testing.assert_allclose(stepped, u, atol=1e-12)

    def test_well_bottom_is_fixed_point(self):
        problem, spec = allen_cahn_problem(betas=(2.0, 2.0, 2.0), initial=2.0, conserved=True)
        sys = problem.system
        u = problem.initial
        # rho = 0, the potential is unshifted, f(beta) = 0: u stays at beta
        stepper = Stepper(sys, 0.01, "semi_implicit_tamed", drift=spec.drift)
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
        stepper = Stepper(sys, dt, "semi_implicit_tamed", diffusion=diffusion)
        n_rep = 20000
        outs = np.empty((n_rep, sys.ndof))
        for rep in range(n_rep):
            dW = IncrementSampler(noise, rep)(0, dt)
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
            v1 = eval_state(mesh, snap, 1, 0.0)
            assert eval_state(mesh, snap, 2, 0.0) == v1
            assert eval_state(mesh, snap, 3, 0.0) == v1

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

    @pytest.mark.parametrize("changes", [
        {"blowup_guard": float("nan")}, {"blowup_guard": 0.0}, {"blowup_guard": -1.0},
        {"snapshot_stride": 0}, {"snapshot_stride": 2.5}, {"snapshot_stride": True},
    ], ids=["nan_guard", "zero_guard", "negative_guard", "zero_stride", "fractional_stride",
            "bool_stride"])
    def test_solver_config_rejects_invalid_field(self, changes):
        with pytest.raises(ConfigurationError):
            SolverConfig(1e-3, 1e-2, **changes)

    def test_solver_config_accepts_infinite_guard_and_numpy_stride(self):
        cfg = SolverConfig(1e-3, 1e-2, snapshot_stride=np.int64(5), blowup_guard=np.inf)
        assert cfg.snapshot_stride == 5 and cfg.blowup_guard == np.inf

    @pytest.mark.parametrize("method", ["backward_euler", "spectral"])
    def test_solve_heat_rejects_zero_stride(self, method):
        sys = conserved_heat_system()
        with pytest.raises(ConfigurationError, match="snapshot_stride"):
            solve_heat(sys, np.zeros(sys.ndof), horizon=0.2, dt=0.05, method=method,
                       snapshot_stride=0)

    def test_noise_without_diffusion_rejected(self):
        problem, _ = allen_cahn_problem(noise_seed=1, t_end=0.01)
        bad = Problem(problem.system, problem.config, problem.initial,
                      problem.drift, None, problem.noise)
        with pytest.raises(ConfigurationError):
            simulate_path(bad)

    def test_exponential_euler_matches_exact_linear_flow(self):
        sys = conserved_heat_system()
        u0 = interpolate(sys.mesh, [lambda x: np.sin(np.pi * x), lambda x: 0.0 * x])
        cfg = SolverConfig(dt=0.05, t_end=0.2, scheme="exponential_euler")
        traj = simulate_path(Problem(sys, cfg, u0))
        exact = solve_heat(sys, u0, horizon=0.2, dt=0.2, method="spectral").final_state()
        np.testing.assert_allclose(traj.final_state(), exact, atol=1e-10)


class TestExponentialEuler:
    def test_step_matches_three_term_oracle(self):
        problem, _ = allen_cahn_problem(n_int=20, dt=1e-3, t_end=0.1, noise_seed=9,
                                        initial=3.0)
        diffusion = build_diffusion(3, parse_expression("1 + 0.1*u*x", ("t", "x", "u")))
        dt = problem.config.dt
        stepper = Stepper(problem.system, dt, "exponential_euler", problem.drift, diffusion)
        spectral = generalized_eigs(problem.system)
        sampler = IncrementSampler(problem.noise, 0)
        u = v = problem.initial
        tamed = 0
        for step in range(problem.config.n_steps):
            t = step * dt
            dW = sampler(step, dt)
            u = stepper.step(u, t, dW)
            forcing = stepper.drift(t, v)
            taming = 1.0 + dt * np.abs(forcing).max()
            tamed += taming > 1.01
            v = three_term_exponential_step(spectral, problem.system.mass, dt, v,
                                            forcing / taming, stepper.diffusion(t, v) * dW)
            assert np.abs(u - v).max() <= 1e-12 * np.abs(v).max()
        assert tamed > 0

    def test_makes_no_sparse_factorization(self, monkeypatch):
        from netsde import sde

        problem, _ = allen_cahn_problem(noise_seed=3, t_end=0.01, scheme="exponential_euler")
        calls = []
        original = sde.spla.splu

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sde.spla, "splu", counted)
        simulate_path(problem)
        assert calls == []
        Stepper(problem.system, problem.config.dt, "semi_implicit_tamed")
        assert len(calls) == 1


def power(v, l):
    """v ** l as ((v * v) * v) * ..., the order eval_drift multiplies in."""
    out = v
    for _ in range(l - 1):
        out = out * v
    return out


def reference_nodal_drift(spec, mesh):
    """The nodal reaction evaluator as it stood before it dispatched to
    ``eval_drift``, with powers by repeated multiplication as stream version
    3 computes them (version 2 used ``u ** l``)."""
    d = spec.top_power
    consts = [[fn.constant for fn in row] for row in spec.coefficients]
    if (all(v is not None for row in consts for v in row)
            and all(consts[j] == consts[0] for j in range(1, spec.n_edges))):
        coeff = np.asarray(consts[0], dtype=float)

        def evaluate_const(t, u):
            acc = -coeff[d] * power(u, d)
            for l in range(1, d):
                if coeff[l] != 0.0:
                    acc = acc + coeff[l] * power(u, l)
            if coeff[0] != 0.0:
                acc = acc + coeff[0]
            return acc

        return evaluate_const

    dof_edge, dof_x = reference_dof_map(mesh)
    by_edge = [np.flatnonzero(dof_edge == j) for j in range(mesh.n_edges)]
    xs = [dof_x[idx] for idx in by_edge]

    def evaluate(t, u):
        out = np.empty_like(u)
        for j, idx in enumerate(by_edge):
            coeffs = spec.coefficients[j]
            x = xs[j]
            v = u[idx]
            acc = -np.broadcast_to(coeffs[d](t, x), x.shape) * power(v, d)
            for l in range(1, d):
                acc = acc + np.broadcast_to(coeffs[l](t, x), x.shape) * power(v, l)
            out[idx] = acc + np.broadcast_to(coeffs[0](t, x), x.shape)
        return out

    return evaluate


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


def reference_nodal_diffusion(spec, mesh):
    """The nodal diffusion evaluator as it stood before it shared the drift's
    dispatcher: one array filled edge by edge, also for a constant g."""
    dof_edge, dof_x = reference_dof_map(mesh)
    by_edge = [np.flatnonzero(dof_edge == j) for j in range(mesh.n_edges)]
    xs = [dof_x[idx] for idx in by_edge]

    def evaluate(t, u):
        out = np.empty_like(u)
        for j, idx in enumerate(by_edge):
            out[idx] = np.broadcast_to(spec.functions[j](t, xs[j], u[idx]), idx.shape)
        return out

    return evaluate


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


def test_per_edge_evaluators_match_reference_on_multigraphs():
    # x-dependent coefficients that differ between edges at shared vertices,
    # so every vertex value shows which incident edge evaluated it
    rng = np.random.default_rng(11)
    for _ in range(100):
        mesh = random_multigraph_mesh(rng)
        m = mesh.n_edges
        slopes = [float(a) for a in rng.uniform(-1.0, 1.0, m)]
        drift = polynomial_drift(
            1, [[0.0, parse_expression(f"1 + ({a!r})*x", ("t", "x")), 0.0, 1.0] for a in slopes],
            n_edges=m)
        diffusion = build_diffusion(
            m, [parse_expression(f"1 + ({a!r})*x*sin(u)", ("t", "x", "u")) for a in slopes])
        t = float(rng.uniform(0.0, 1.0))
        u = rng.standard_normal(mesh.ndof)
        assert (nodal_drift_evaluator(drift, mesh)(t, u).tobytes()
                == reference_nodal_drift(drift, mesh)(t, u).tobytes())
        assert (nodal_diffusion_evaluator(diffusion, mesh)(t, u).tobytes()
                == reference_nodal_diffusion(diffusion, mesh)(t, u).tobytes())


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
