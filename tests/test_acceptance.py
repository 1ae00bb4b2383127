"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS/FAIL line (collected again in the terminal summary)
with the measured quantities, and asserts the criterion at its stated
tolerance.  Random instances are drawn from fixed seeds so every run is
deterministic.
"""

import numpy as np
import pytest

from netsde.analysis import (
    allen_cahn_energy,
    estimate_holder_exponent,
    estimate_strong_order,
    holder_exponent_from_paths,
    vertex_residual,
)
from netsde.assembly import assemble_form
from netsde.fields import allen_cahn_system, build_diffusion, build_edge_fields
from netsde.graph import VertexMatrix, build_graph
from netsde.mesh import build_mesh, interpolate
from netsde.noise import IncrementSampler, colored_noise_operator, white_noise_model
from netsde.sde import Problem, SolverConfig, TrajectorySet, simulate_path, solve_heat
from netsde.semigroup import generalized_eigs, propagator

from _oracles import robin_eigenfunction, robin_eigenvalues
from conftest import record_acceptance

STAR_CONSERVED_M = np.array([
    [-3.0, 1.0, 1.0, 1.0],
    [1.0, -1.0, 0.0, 0.0],
    [1.0, 0.0, -1.0, 0.0],
    [1.0, 0.0, 0.0, -1.0],
])


def random_instance(rng):
    """A random graph (<= 10 edges), coefficient set and NSD vertex matrix."""
    n = int(rng.integers(2, 7))
    edges = [(i, i + 1) for i in range(1, n)]
    for _ in range(int(rng.integers(0, min(4, 11 - len(edges))))):
        a, b = rng.choice(n, size=2, replace=False) + 1
        edges.append((int(a), int(b)))
    graph = build_graph(n, edges)
    m = graph.n_edges
    fields = build_edge_fields(
        m,
        conductance=[
            (lambda x, a=rng.uniform(0.5, 2.0), b=rng.uniform(-0.4, 0.4): a + b * x)
            for _ in range(m)
        ],
        potential=[float(v) for v in rng.uniform(0.0, 1.0, m)],
        weights=rng.uniform(0.5, 2.0, m),
    )
    A = rng.standard_normal((n, n))
    M = VertexMatrix(-(A.T @ A) / n)
    mesh = build_mesh(graph, int(rng.integers(2, 9)))
    return assemble_form(mesh, fields, M)


def strict_profile_cases():
    """Fixed strict-profile instances used by the contraction/positivity checks."""
    single = (build_graph(2, [(1, 2)]), -np.eye(2),
              dict(conductance=1.0, potential=0.0))
    path = (build_graph(3, [(1, 2), (2, 3)]),
            np.array([[-2.0, 1.0, 0.0], [1.0, -3.0, 1.0], [0.0, 1.0, -2.0]]),
            dict(conductance=lambda x: 1.0 + 0.5 * x, potential=0.5))
    star = (build_graph(4, [(1, 2), (1, 3), (1, 4)]), STAR_CONSERVED_M,
            dict(conductance=1.0, potential=0.25))
    return [single, path, star]


def test_criterion_1_form_structure():
    rng = np.random.default_rng(101)
    worst_ratio = 0.0
    for _ in range(50):
        sys = random_instance(rng)
        total = (sys.stiffness_potential + sys.vertex_coupling).tocsr()
        assert (total - total.T).nnz == 0
        dense = total.toarray()
        scale = np.linalg.norm(dense, 2)
        for _ in range(100):
            x = rng.standard_normal(sys.ndof)
            value = x @ dense @ x
            floor = -1e-10 * scale * (x @ x)
            worst_ratio = max(worst_ratio, -value / max(scale * (x @ x), 1e-300))
            assert value >= floor
    record_acceptance(1, "form structure", True,
                      f"50 instances symmetric, worst -x'Tx/(|T||x|^2) = {worst_ratio:.2e}")


def test_criterion_2_contraction():
    rng = np.random.default_rng(202)
    lam_worst = -np.inf
    for _ in range(20):
        sys = random_instance(rng)
        lam1 = float(generalized_eigs(sys, count=1).eigenvalues[0])
        lam_worst = max(lam_worst, lam1)
        assert lam1 <= 1e-10
    # strict profile: lumped-propagator sup-norm bound at fixed (t, h), and the
    # consistent-mass excess must not increase under refinement
    worst_lumped = 0.0
    for graph, M, fields_kw in strict_profile_cases():
        fields = build_edge_fields(graph.n_edges, **fields_kw)
        excess_by_t = {t: [] for t in (0.01, 0.1, 1.0)}
        for n_int in (7, 15, 31):
            sys = assemble_form(build_mesh(graph, n_int), fields, VertexMatrix(M))
            for t in (0.01, 0.1, 1.0):
                lumped = float(np.abs(propagator(sys, t, lumped=True)).sum(axis=1).max())
                worst_lumped = max(worst_lumped, lumped)
                assert lumped <= 1.0 + 1e-6
                cons = float(np.abs(propagator(sys, t, lumped=False)).sum(axis=1).max())
                excess_by_t[t].append(max(cons - 1.0, 0.0))
        for t, excesses in excess_by_t.items():
            assert np.all(np.diff(excesses) <= 1e-12)
    record_acceptance(2, "contraction", True,
                      f"lambda_1 <= {lam_worst:.2e}; lumped Einf norm <= {worst_lumped:.9f}; "
                      "consistent excess nonincreasing")


def test_criterion_3_positivity():
    t_grid = (0.01, 0.1, 1.0)
    worst = 0.0
    for graph, M, fields_kw in strict_profile_cases():
        fields = build_edge_fields(graph.n_edges, **fields_kw)
        sys = assemble_form(build_mesh(graph, 9), fields, VertexMatrix(M))
        for t in t_grid:
            low = float(propagator(sys, t, lumped=True).min())
            worst = min(worst, low)
            assert low >= -1e-8
    # witness: one negative off-diagonal entry makes the propagator lose positivity
    graph = build_graph(2, [(1, 2)])
    sys = assemble_form(build_mesh(graph, 7), build_edge_fields(1),
                        VertexMatrix(np.array([[-2.0, -1.0], [-1.0, -2.0]])))
    witness = float(propagator(sys, 0.01, lumped=True).min())
    assert witness < -1e-8
    record_acceptance(3, "positivity", True,
                      f"min entry {worst:.2e} >= -1e-8; witness entry {witness:.2e}")


def test_criterion_4_spectral_oracle():
    oracle, _ = robin_eigenvalues(5)
    graph = build_graph(2, [(1, 2)])
    fields = build_edge_fields(1)
    hs = np.array([1 / 16, 1 / 32, 1 / 64, 1 / 128])
    errors = np.empty((hs.size, 5))
    for i, n_int in enumerate((15, 31, 63, 127)):
        sys = assemble_form(build_mesh(graph, n_int), fields, VertexMatrix(-np.eye(2)))
        values = generalized_eigs(sys, count=5).eigenvalues
        errors[i] = np.abs(values - oracle)
    orders = []
    for k in range(5):
        slope = np.polyfit(np.log(hs), np.log(errors[:, k]), 1)[0]
        orders.append(slope)
        assert slope == pytest.approx(2.0, abs=0.2)
    record_acceptance(4, "spectral oracle", True,
                      "observed orders " + ", ".join(f"{o:.2f}" for o in orders))


def test_criterion_5_conservation_and_energy():
    # linear flow: total mass conserved in the zero-row-sum configuration
    graph = build_graph(3, [(1, 2), (2, 3)])
    fields = build_edge_fields(2, weights=[2.0, 1.0])
    M = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
    sys = assemble_form(build_mesh(graph, 8), fields, VertexMatrix(M))
    u0 = interpolate(sys.mesh, [lambda x: 1.0 + x, lambda x: 2.0 - np.sin(np.pi * x)])
    traj = solve_heat(sys, u0, horizon=1.0, dt=0.01)
    masses = np.array([sys.total_mass(s) for s in traj.states])
    drift = float(np.max(np.abs(masses - masses[0])) / abs(masses[0]))
    assert drift < 1e-10

    # double-well flow: discrete energy nonincreasing along the tamed scheme
    star = build_graph(4, [(1, 2), (1, 3), (1, 4)])
    spec = allen_cahn_system([1.0, 2.0, 1.5], build_edge_fields(3))
    sys2 = assemble_form(build_mesh(star, 8), spec.fields, VertexMatrix(STAR_CONSERVED_M))
    u0 = interpolate(sys2.mesh, [lambda x: 0.5 * np.cos(np.pi * x),
                                 lambda x: 0.5 * np.cos(2 * np.pi * x),
                                 lambda x: 0.5 - 0.2 * x])
    problem = Problem(sys2, SolverConfig(dt=1e-3, t_end=1.0), u0, spec.drift)
    path = simulate_path(problem)
    energies = np.array([allen_cahn_energy(sys2, spec.beta, s) for s in path.states])
    violations = np.sum(np.diff(energies) > 1e-12 * (1.0 + np.abs(energies[:-1])))
    fraction = violations / (energies.size - 1)
    assert fraction < 1e-3
    record_acceptance(5, "conservation and energy", True,
                      f"mass drift {drift:.2e}; energy violations {fraction:.2%}")


def test_criterion_6_noise_covariance():
    graph = build_graph(2, [(1, 2)])
    mesh = build_mesh(graph, 28)  # 30 dofs
    sys = assemble_form(mesh, build_edge_fields(1), VertexMatrix(-np.eye(2)))
    dt = 0.05
    n_draw = 100000
    noise = white_noise_model(sys, seed=8)
    sampler = IncrementSampler(noise, 0, dt, n_draw)
    acc = np.zeros((sys.ndof, sys.ndof))
    for step in range(n_draw):
        w = sampler(step)
        acc += np.outer(w, w)
    emp = acc / n_draw
    G = sys.mass.toarray()
    target = dt * G
    se = dt * np.sqrt((np.outer(np.diag(G), np.diag(G)) + G ** 2) / n_draw)
    zmax = float(np.max(np.abs(emp - target) / se))
    assert zmax <= 3.0
    record_acceptance(6, "noise covariance", True,
                      f"{n_draw} increments on {sys.ndof} dofs, max |z| = {zmax:.3f}")


def test_criterion_7_zero_noise_and_reproducibility():
    graph = build_graph(3, [(1, 2), (2, 3)])
    fields = build_edge_fields(2)
    M = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
    sys = assemble_form(build_mesh(graph, 6), fields, VertexMatrix(M))
    u0 = interpolate(sys.mesh, [lambda x: np.sin(np.pi * x), lambda x: 0.0 * x])
    cfg = SolverConfig(dt=1e-3, t_end=0.2)
    # g == 0: the stochastic path must reproduce the deterministic solver
    stochastic = Problem(sys, cfg, u0, None, build_diffusion(2, 0.0),
                         white_noise_model(sys, seed=3))
    traj = simulate_path(stochastic)
    reference = solve_heat(sys, u0, horizon=0.2, dt=1e-3)
    gap = float(np.max(np.abs(traj.states - reference.states)))
    assert gap <= 1e-10

    noisy = Problem(sys, cfg, u0, None, build_diffusion(2, 1.0),
                    white_noise_model(sys, seed=3))
    a = simulate_path(noisy, trajectory_id=5)
    b = simulate_path(noisy, trajectory_id=5)
    bitwise = bool(np.array_equal(a.states, b.states) and a.sup_norm == b.sup_norm)
    assert bitwise
    record_acceptance(7, "zero-noise reduction and reproducibility", True,
                      f"max deviation {gap:.2e}; repeated run bitwise identical")


def _holder_network_problem(noise_kind, seed=20250810, n_int=96):
    graph = build_graph(4, [(1, 2), (1, 3), (1, 4)])
    spec = allen_cahn_system([1.0, 1.0, 1.0], build_edge_fields(3))
    mesh = build_mesh(graph, n_int)
    system = assemble_form(mesh, spec.fields, VertexMatrix(-np.eye(4)))
    if noise_kind == "white":
        noise = white_noise_model(system, seed=seed)
    else:
        noise = colored_noise_operator(system, decay=2.0, seed=seed)
    cfg = SolverConfig(dt=1e-5, t_end=0.03)
    return Problem(system, cfg, interpolate(mesh, 0.0), spec.drift,
                   build_diffusion(3, 1.0), noise)


def test_criterion_8_holder_exponents():
    # calibration: the estimator recovers the Brownian exponent 1/2
    rng = np.random.default_rng(888)
    spacing = 1e-3
    n_snap = 401
    increments = rng.standard_normal((200, n_snap - 1, 1)) * np.sqrt(spacing)
    paths = list(np.concatenate(
        [np.zeros((200, 1, 1)), np.cumsum(increments, axis=1)], axis=1))
    times = spacing * np.arange(n_snap)
    calib = holder_exponent_from_paths(times, paths, np.array([2, 4, 8, 16, 32]) * spacing)
    assert calib.estimate == pytest.approx(0.5, abs=0.05)

    lags = np.array([1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2])
    white = estimate_holder_exponent(
        _holder_network_problem("white"), lags, n_trajectories=200,
        norm="E2", burn_fraction=1.0 / 3.0)
    assert 0.20 <= white.estimate <= 0.30

    colored = estimate_holder_exponent(
        _holder_network_problem("colored"), lags, n_trajectories=200,
        norm="E2", burn_fraction=1.0 / 3.0)
    assert 0.40 <= colored.estimate <= 0.55
    record_acceptance(
        8, "Hölder exponents", True,
        f"Brownian calibration {calib.estimate:.3f}; white {white.estimate:.3f} "
        f"in [0.20,0.30]; colored {colored.estimate:.3f} in [0.40,0.55]")


def test_criterion_9_strong_self_convergence():
    graph = build_graph(2, [(1, 2)])
    fields = build_edge_fields(1)
    sys = assemble_form(build_mesh(graph, 24), fields, VertexMatrix(-np.eye(2)))
    problem = Problem(sys, SolverConfig(dt=1e-3, t_end=0.128),
                      interpolate(sys.mesh, lambda x: np.sin(np.pi * x)),
                      None, build_diffusion(1, 1.0), white_noise_model(sys, seed=77))
    ladder = 0.128 / np.array([4096.0, 128.0, 64.0, 32.0, 16.0])
    est = estimate_strong_order(problem, ladder, n_trajectories=100)
    assert est.estimate >= 0.2
    assert est.r_squared >= 0.95
    record_acceptance(9, "strong self-convergence", True,
                      f"observed order {est.estimate:.3f}, R^2 = {est.r_squared:.4f}")


def test_criterion_10_vertex_law():
    _, omegas = robin_eigenvalues(1)
    mode = robin_eigenfunction(omegas[0])
    graph = build_graph(2, [(1, 2)])
    fields = build_edge_fields(1)
    residuals = []
    for n_int in (15, 31, 63):
        sys = assemble_form(build_mesh(graph, n_int), fields, VertexMatrix(-np.eye(2)))
        state = interpolate(sys.mesh, mode)
        traj = TrajectorySet(np.array([0.0]), state[None, :], 1.0)
        residuals.append(float(vertex_residual(traj, sys)[0]))
    hs = np.array([1 / 16, 1 / 32, 1 / 64])
    order = float(np.polyfit(np.log(hs), np.log(residuals), 1)[0])
    assert np.all(np.diff(residuals) < 0.0)
    assert order >= 0.9
    record_acceptance(10, "vertex law", True,
                      f"residuals {residuals[0]:.2e} -> {residuals[-1]:.2e}, "
                      f"observed order {order:.2f}")
