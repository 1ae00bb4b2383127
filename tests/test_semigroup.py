import numpy as np
import pytest

from netsde import semigroup
from netsde.assembly import assemble_form
from netsde.errors import ConfigurationError
from netsde.fields import build_edge_fields
from netsde.graph import VertexMatrix, build_graph
from netsde.mesh import build_mesh, interpolate
from netsde.noise import colored_noise_operator, white_noise_model
from netsde.sde import solve_heat
from netsde.semigroup import (
    check_contraction,
    check_positivity,
    generalized_eigs,
    propagator,
    semigroup_apply,
)

from _oracles import (
    backward_euler_heat,
    dense_expm_propagator,
    ols_slope,
    random_multigraph_mesh,
    robin_eigenvalues,
)


def robin_system(n_int):
    graph = build_graph(2, [(1, 2)])
    fields = build_edge_fields(1)
    return assemble_form(build_mesh(graph, n_int), fields, VertexMatrix(-np.eye(2)))


def conserved_system(n_int=6):
    graph = build_graph(3, [(1, 2), (2, 3)])
    fields = build_edge_fields(2, weights=[2.0, 1.0])
    M = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
    return assemble_form(build_mesh(graph, n_int), fields, VertexMatrix(M))


class TestGeneralizedEigs:
    def test_full_decomposition_above_dense_limit_fails_fast(self, monkeypatch):
        sys = robin_system(15)
        partial = generalized_eigs(sys, count=3).eigenvalues
        monkeypatch.setattr(semigroup, "DENSE_LIMIT", sys.ndof - 1)

        def dense_eigh(*args, **kwargs):
            raise AssertionError("dense eigh reached above DENSE_LIMIT")

        monkeypatch.setattr(semigroup.scipy.linalg, "eigh", dense_eigh)
        limit = f"{sys.ndof} dofs.*DENSE_LIMIT = {sys.ndof - 1}"
        with pytest.raises(ConfigurationError, match=limit):
            generalized_eigs(sys)
        with pytest.raises(ConfigurationError, match=limit):
            semigroup_apply(sys, 0.1, np.ones(sys.ndof))
        # a partial decomposition takes the iterative path instead
        np.testing.assert_allclose(generalized_eigs(sys, count=3).eigenvalues, partial,
                                   rtol=1e-10)

    @pytest.mark.parametrize("n_int", [10, 40, 100])
    def test_iterative_eigensolve_is_repeatable(self, monkeypatch, n_int):
        # 34, 124 and 304 dofs on a 3-star, all on the iterative path
        graph = build_graph(4, [(1, 2), (1, 3), (1, 4)])
        sys = assemble_form(build_mesh(graph, n_int), build_edge_fields(3, weights=[1.0, 2.0, 0.5]),
                            VertexMatrix(-np.eye(4)))
        dense = generalized_eigs(sys, count=4)
        monkeypatch.setattr(semigroup, "DENSE_LIMIT", 5)
        first, second = generalized_eigs(sys, count=4), generalized_eigs(sys, count=4)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)
        np.testing.assert_allclose(first.eigenvalues, dense.eigenvalues, rtol=1e-9)

    def test_more_pairs_than_dofs_rejected(self):
        with pytest.raises(ConfigurationError, match="requested 6 eigenpairs from a 5-dof"):
            generalized_eigs(robin_system(3), count=6)

    def test_eigenvalues_real_descending_nonpositive(self):
        sys = robin_system(15)
        spec = generalized_eigs(sys)
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)
        assert spec.eigenvalues[0] <= 1e-10

    def test_g_orthonormal(self):
        sys = conserved_system()
        spec = generalized_eigs(sys)
        gram = spec.eigenvectors.T @ sys.mass.toarray() @ spec.eigenvectors
        assert np.max(np.abs(gram - np.eye(sys.ndof))) <= 1e-10

    def test_robin_spectrum_matches_bisection_oracle(self):
        oracle, _ = robin_eigenvalues(3)
        spec = generalized_eigs(robin_system(127), count=3)
        np.testing.assert_allclose(spec.eigenvalues, oracle, rtol=5e-4)

    def test_conserved_case_has_constant_kernel(self):
        sys = conserved_system()
        spec = generalized_eigs(sys, count=1)
        assert abs(spec.eigenvalues[0]) < 1e-10
        v = spec.eigenvectors[:, 0]
        assert np.max(np.abs(v - v[0])) < 1e-8

    def test_constant_potential_shifts_spectrum_exactly(self):
        graph = build_graph(2, [(1, 2)])
        mesh = build_mesh(graph, 9)
        M = VertexMatrix(-np.eye(2))
        rho = 0.7
        base = generalized_eigs(assemble_form(mesh, build_edge_fields(1), M))
        shifted = generalized_eigs(assemble_form(
            mesh, build_edge_fields(1, potential=rho), M))
        np.testing.assert_allclose(shifted.eigenvalues, base.eigenvalues - rho, atol=1e-11)

    def test_spectral_decay_trend(self):
        # Weyl-type growth: |lambda_k| increases superlinearly in k
        spec = generalized_eigs(robin_system(63))
        lam = -spec.eigenvalues
        ks = np.arange(5, 25)
        slope, _, _ = ols_slope(np.log(ks), np.log(lam[ks - 1]))
        assert 1.5 <= slope <= 2.5
        assert np.all(np.diff(lam) > 0)


class TestSemigroupApply:
    def test_identity_at_zero(self):
        sys = robin_system(7)
        u = np.sin(np.arange(sys.ndof, dtype=float))
        np.testing.assert_allclose(semigroup_apply(sys, 0.0, u), u, atol=1e-12)

    def test_constants_invariant_in_conserved_case(self):
        sys = conserved_system()
        ones = np.ones(sys.ndof)
        np.testing.assert_allclose(semigroup_apply(sys, 2.0, ones), ones, atol=1e-10)

    def test_eigenvector_decay(self):
        sys = robin_system(11)
        spec = generalized_eigs(sys)
        k = 2
        out = semigroup_apply(sys, 0.3, spec.eigenvectors[:, k], spec)
        expected = np.exp(spec.eigenvalues[k] * 0.3) * spec.eigenvectors[:, k]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_semigroup_law(self):
        sys = conserved_system()
        rng = np.random.default_rng(8)
        u = rng.standard_normal(sys.ndof)
        both = semigroup_apply(sys, 0.7, u)
        chained = semigroup_apply(sys, 0.3, semigroup_apply(sys, 0.4, u))
        assert np.max(np.abs(both - chained)) <= 1e-10 * (1 + np.max(np.abs(both)))

    def test_matches_dense_expm_oracle(self):
        sys = robin_system(9)
        rng = np.random.default_rng(9)
        u = rng.standard_normal(sys.ndof)
        ours = semigroup_apply(sys, 0.25, u)
        oracle = dense_expm_propagator(sys, 0.25) @ u
        np.testing.assert_allclose(ours, oracle, atol=1e-10)

    def test_monotone_norm_decay(self):
        sys = robin_system(9)
        rng = np.random.default_rng(10)
        u = rng.standard_normal(sys.ndof)
        norms = [sys.e2_norm(semigroup_apply(sys, t, u)) for t in np.linspace(0, 2, 9)]
        assert np.all(np.diff(norms) <= 1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            semigroup_apply(robin_system(3), -0.1, np.zeros(5))


class TestContraction:
    def test_unknown_norm_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown norm 'L1'"):
            check_contraction(robin_system(3), [0.1], norm="L1")

    def test_e2_passes_for_valid_matrix(self):
        report = check_contraction(conserved_system(), [0.1, 1.0], norm="E2")
        assert report.passed

    def test_einf_passes_under_strict_profile(self):
        report = check_contraction(robin_system(7), [0.01, 0.1, 1.0], norm="Einf")
        assert report.passed
        assert report.context["propagator"] == "lumped"

    def test_einf_lumped_matches_dense_oracle(self):
        sys = robin_system(7)
        t = 0.05
        ours = check_contraction(sys, [t], norm="Einf").check(f"einf_operator_norm_t_{t:g}")
        oracle = np.abs(dense_expm_propagator(sys, t, lumped=True)).sum(axis=1).max()
        assert ours.measured == pytest.approx(oracle, rel=1e-10)

    def test_einf_fails_for_large_negative_offdiagonal(self):
        # NSD but row 1 violates b_ii + sum |b_ik| <= 0
        graph = build_graph(2, [(1, 2)])
        sys = assemble_form(build_mesh(graph, 7), build_edge_fields(1),
                            VertexMatrix(np.array([[-1.0, -2.0], [-2.0, -5.0]])))
        e2 = check_contraction(sys, [0.02], norm="E2")
        assert e2.passed
        einf = check_contraction(sys, [0.02], norm="Einf")
        assert not einf.passed


def test_dense_propagator_limit_fails_fast(monkeypatch):
    # a 3-star with 134 interior nodes per edge: 406 dofs, above EXPM_LIMIT = 400
    graph = build_graph(4, [(1, 2), (1, 3), (1, 4)])
    sys = assemble_form(build_mesh(graph, 134), build_edge_fields(3), VertexMatrix(-np.eye(4)))

    def dense_expm(*args, **kwargs):
        raise AssertionError("dense expm reached above EXPM_LIMIT")

    monkeypatch.setattr(semigroup.scipy.linalg, "expm", dense_expm)
    limit = "406 dofs.*EXPM_LIMIT = 400"
    with pytest.raises(ConfigurationError, match=limit):
        propagator(sys, 0.1)
    with pytest.raises(ConfigurationError, match=limit):
        check_contraction(sys, [0.1], norm="Einf")
    with pytest.raises(ConfigurationError, match=limit):
        check_positivity(sys, [0.1])


class TestPositivity:
    def test_nonnegative_offdiagonal_passes(self):
        report = check_positivity(conserved_system(), [0.01, 0.1, 1.0])
        assert report.passed

    def test_time_zero_is_identity(self):
        sys = robin_system(5)
        np.testing.assert_allclose(propagator(sys, 0.0), np.eye(sys.ndof), atol=1e-14)

    def test_negative_offdiagonal_witness(self):
        graph = build_graph(2, [(1, 2)])
        sys = assemble_form(build_mesh(graph, 7), build_edge_fields(1),
                            VertexMatrix(np.array([[-2.0, -1.0], [-1.0, -2.0]])))
        report = check_positivity(sys, [0.01])
        assert not report.passed

    def test_positivity_propagates_initial_sign(self):
        sys = conserved_system()
        rng = np.random.default_rng(21)
        u0 = rng.uniform(0.0, 1.0, sys.ndof)
        for t in (0.05, 0.5):
            out = propagator(sys, t, lumped=True) @ u0
            assert out.min() >= -1e-8


class TestSolveHeat:
    def test_mass_conserved(self):
        sys = conserved_system()
        u0 = interpolate(sys.mesh, [lambda x: x, lambda x: 1.0 + np.sin(np.pi * x)])
        traj = solve_heat(sys, u0, horizon=1.0, dt=0.01)
        masses = np.array([sys.total_mass(s) for s in traj.states])
        assert np.max(np.abs(masses - masses[0])) <= 1e-10 * abs(masses[0])

    def test_e2_norm_nonincreasing(self):
        sys = robin_system(9)
        rng = np.random.default_rng(4)
        traj = solve_heat(sys, rng.standard_normal(sys.ndof), horizon=0.5, dt=0.005)
        norms = [sys.e2_norm(s) for s in traj.states]
        assert np.all(np.diff(norms) <= 1e-12)

    def test_backward_euler_first_order_against_spectral(self):
        sys = robin_system(15)
        u0 = interpolate(sys.mesh, lambda x: np.sin(np.pi * x) + 1.0)
        exact = semigroup_apply(sys, 0.5, u0)
        errors = []
        for dt in (0.05, 0.025, 0.0125):
            approx = solve_heat(sys, u0, horizon=0.5, dt=dt).final_state()
            errors.append(sys.e2_norm(approx - exact))
        rate, _, _ = ols_slope(np.log([0.05, 0.025, 0.0125]), np.log(errors))
        assert rate == pytest.approx(1.0, abs=0.15)

    def test_spectral_solver_matches_refined_backward_euler(self):
        sys = robin_system(7)
        u0 = interpolate(sys.mesh, lambda x: x * (1 - x))
        spectral = semigroup_apply(sys, 0.2, u0)
        euler = solve_heat(sys, u0, horizon=0.2, dt=1e-4).final_state()
        assert sys.e2_norm(spectral - euler) < 5e-4

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("case", ["robin", "conserved", "robin_fine"])
    def test_backward_euler_matches_reference_loop(self, case, stride):
        sys, horizon, dt = {
            "robin": (robin_system(9), 0.5, 0.005),
            "conserved": (conserved_system(), 1.0, 0.01),
            "robin_fine": (robin_system(63), 0.2, 1e-3),
        }[case]
        u0 = np.random.default_rng(8).standard_normal(sys.ndof)
        traj = solve_heat(sys, u0, horizon=horizon, dt=dt, snapshot_stride=stride)
        times, states, sup = backward_euler_heat(sys, u0, horizon, dt, stride)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)
        assert traj.sup_norm == sup

    @pytest.mark.parametrize("solver", [solve_heat], ids=["backward_euler"])
    @pytest.mark.parametrize("horizon, dt", [(0.5, 0.0), (0.5, -0.1), (0.5, 0.3)])
    def test_bad_time_grid_rejected(self, solver, horizon, dt):
        sys = robin_system(3)
        with pytest.raises(ConfigurationError):
            solver(sys, np.zeros(sys.ndof), horizon=horizon, dt=dt)


def spectral_invariants(n_vertices, edges, n_interior, edge_data, matrix):
    """The pencil's eigenvalues (descending) and the modal noise variances
    ``diag(V^T Q V)`` for white, lumped and colored Q, of the network whose
    edge j runs along ``edges[j]`` with ``edge_data[j] = (c0, c1, p0, p1,
    weight, amplitude, reversed)``: conductance ``c0 + c1*s`` and potential
    ``p0 + p1*s^2`` in s = x, or s = 1 - x on a reversed edge."""
    conductance, potential = [], []
    for c0, c1, p0, p1, _, _, flip in edge_data:
        s = "(1-x)" if flip else "x"
        conductance.append(f"{c0!r} + {c1!r}*{s}")
        potential.append(f"{p0!r} + {p1!r}*{s}*{s}")
    fields = build_edge_fields(len(edges), conductance, potential, [d[4] for d in edge_data])
    system = assemble_form(build_mesh(build_graph(n_vertices, edges), n_interior), fields,
                           VertexMatrix(matrix))
    spectral = generalized_eigs(system)
    noises = {"white": white_noise_model(system),
              "lumped": white_noise_model(system, lumped=True),
              "colored": colored_noise_operator(system, 1.5,
                                                amplitudes=[d[5] for d in edge_data])}
    variances = {}
    for kind, noise in noises.items():
        projected = spectral.eigenvectors.T @ noise.apply(np.eye(noise.dim))
        variances[kind] = np.einsum("kr,kr->k", projected, projected)
    return spectral.eigenvalues, variances


def relabel_vertices(rng, n, edges, edge_data, matrix):
    new_id = rng.permutation(n)  # vertex v becomes new_id[v-1] + 1
    old_id = np.argsort(new_id)
    edges = [(int(new_id[a - 1]) + 1, int(new_id[b - 1]) + 1) for a, b in edges]
    return edges, edge_data, matrix[np.ix_(old_id, old_id)]


def reverse_edges(rng, n, edges, edge_data, matrix):
    flipped = [(*d[:6], not d[6]) for d in edge_data]
    return [(b, a) for a, b in edges], flipped, matrix


def reorder_edges(rng, n, edges, edge_data, matrix):
    order = rng.permutation(len(edges))
    return [edges[i] for i in order], [edge_data[i] for i in order], matrix


@pytest.mark.parametrize("transform", [relabel_vertices, reverse_edges, reorder_edges],
                         ids=["relabel_vertices", "reverse_edges", "reorder_edges"])
def test_spectrum_and_modal_noise_variances_are_metamorphic_invariants(transform):
    """Relabelling vertices, running edges backwards (x -> 1 - x) and listing
    edges in another order describe the same network, so the spectrum and
    the noise variance per eigenspace stay unchanged to rounding.  Where
    eigenvalues coincide (symmetric graphs) the eigenvectors are not unique,
    and each cluster's summed variance is compared instead."""
    rng = np.random.default_rng(20261019)
    for _ in range(20):
        mesh = random_multigraph_mesh(rng)
        n, edges = mesh.graph.n_vertices, list(mesh.graph.edges)
        if rng.random() < 0.5:
            # every edge alike, with constant coefficients: parallel edges and
            # graph automorphisms make eigenvalues coincide
            c0, p0, weight, amplitude = (float(v) for v in rng.uniform(0.5, 1.5, 4))
            edge_data = [(c0, 0.0, p0, 0.0, weight, amplitude, False)] * len(edges)
            matrix = -np.eye(n)
        else:
            low, high = [0.5, 0.0, 0.0, 0.0, 0.5, 0.5], [1.5, 1.0, 1.0, 1.0, 2.0, 2.0]
            edge_data = [(*(float(v) for v in rng.uniform(low, high)), False) for _ in edges]
            B = rng.standard_normal((n, n))
            matrix = -(B @ B.T) - 0.1 * np.eye(n)
        values, variances = spectral_invariants(n, edges, mesh.n_interior, edge_data, matrix)
        new_edges, new_data, new_matrix = transform(rng, n, edges, edge_data, matrix)
        new_values, new_variances = spectral_invariants(n, new_edges, mesh.n_interior,
                                                        new_data, new_matrix)
        scale = np.abs(values).max()
        np.testing.assert_allclose(new_values, values, rtol=0.0, atol=1e-11 * scale)
        starts = np.flatnonzero(np.r_[True, np.diff(values) < -1e-6 * scale])
        for kind, variance in variances.items():
            np.testing.assert_allclose(np.add.reduceat(new_variances[kind], starts),
                                       np.add.reduceat(variance, starts),
                                       rtol=1e-9, atol=1e-12 * variance.sum(), err_msg=kind)
