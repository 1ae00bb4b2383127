import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad

from _oracles import random_multigraph_mesh, reference_assemble_form
from netsde import assembly
from netsde.assembly import (
    arrowhead_solver,
    assemble_form,
    bind_matvec,
    dump_matrices,
    noise_covariance_factor,
)
from netsde.errors import (
    ConfigurationError,
    DimensionMismatch,
    FactorizationFailure,
    LinearSolveFailure,
    NegativePotential,
    ValidationFailure,
)
from netsde.expressions import parse_expression
from netsde.fields import (
    EdgeFieldSet,
    EdgeFunction,
    allen_cahn_system,
    as_edge_function,
    build_edge_fields,
    polynomial_drift,
)
from netsde.graph import VertexMatrix, build_graph
from netsde.mesh import build_mesh, interpolate
from netsde.sde import SCHEMES, Problem, SolverConfig, Stepper


def single_edge_system(n_int=1, conductance=1.0, potential=0.0, mu=1.0,
                       M=((-1.0, 1.0), (1.0, -1.0))):
    graph = build_graph(2, [(1, 2)])
    mesh = build_mesh(graph, n_int)
    fields = build_edge_fields(1, conductance, potential, mu)
    return assemble_form(mesh, fields, VertexMatrix(np.array(M)))


def random_system(rng, strict=False):
    n = int(rng.integers(2, 5))
    edges = [(i, i + 1) for i in range(1, n)]
    extra = int(rng.integers(0, 3))
    for _ in range(extra):
        a, b = rng.choice(n, size=2, replace=False) + 1
        edges.append((int(a), int(b)))
    graph = build_graph(n, edges)
    m = graph.n_edges
    fields = build_edge_fields(
        m,
        conductance=[lambda x, a=rng.uniform(0.5, 2.0), b=rng.uniform(-0.3, 0.3): a + b * x
                     for _ in range(m)],
        potential=[float(v) for v in rng.uniform(0.0, 1.0, m)],
        weights=rng.uniform(0.5, 2.0, m),
    )
    off = rng.uniform(0.0, 1.0, (n, n))
    off = 0.5 * (off + off.T)
    np.fill_diagonal(off, 0.0)
    if not strict:
        off *= rng.choice([-1.0, 1.0], size=(n, n))
        off = 0.5 * (off + off.T)
    diag = -(np.abs(off).sum(axis=1) + rng.uniform(0.0, 0.5, n))
    mesh = build_mesh(graph, int(rng.integers(2, 7)))
    return assemble_form(mesh, fields, VertexMatrix(off + np.diag(diag)))


class TestSingleEdgeBlocks:
    def test_stiffness_block(self):
        sys = single_edge_system(M=((-0.0, 0.0), (0.0, -1e-30)))  # negligible coupling
        mesh = sys.mesh
        order = [mesh.edge_dofs[0, 0], mesh.edge_dofs[0, 1], mesh.edge_dofs[0, 2]]
        S = sys.stiffness_potential.toarray()[np.ix_(order, order)]
        np.testing.assert_allclose(S, [[2.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 2.0]],
                                   atol=1e-14)

    def test_mass_block(self):
        sys = single_edge_system()
        mesh = sys.mesh
        order = [mesh.edge_dofs[0, 0], mesh.edge_dofs[0, 1], mesh.edge_dofs[0, 2]]
        G = sys.mass.toarray()[np.ix_(order, order)]
        h = 0.5
        np.testing.assert_allclose(G, h / 6.0 * np.array([[2.0, 1.0, 0.0],
                                                          [1.0, 4.0, 1.0],
                                                          [0.0, 1.0, 2.0]]), atol=1e-15)

    def test_vertex_coupling_scatter(self):
        sys = single_edge_system()
        total = (sys.stiffness_potential + sys.vertex_coupling).toarray()
        v0, v1 = sys.mesh.vertex_dofs
        bare = single_edge_system(M=((-0.0, 0.0), (0.0, -1e-30))).stiffness_potential.toarray()
        # K = -M adds +1 on both vertex diagonals and -1 on the off-diagonal
        assert total[v0, v0] - bare[v0, v0] == pytest.approx(1.0)
        assert total[v1, v1] - bare[v1, v1] == pytest.approx(1.0)
        assert total[v0, v1] - bare[v0, v1] == pytest.approx(-1.0)

    @pytest.mark.parametrize("field", ["conductance", "potential"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_coefficient_at_quadrature_points(self, field, value):
        # built without build_edge_fields, whose grid check would catch it first
        fields = build_edge_fields(2)
        bad = (lambda x: np.full_like(x, 1.0), lambda x: np.full_like(x, value))
        mesh = build_mesh(build_graph(3, [(1, 2), (2, 3)]), 3)
        with pytest.raises(ConfigurationError, match=f"{field} on edge 2 "):
            assemble_form(mesh, replace(fields, **{field: bad}), VertexMatrix(-np.eye(3)))

    def test_first_failing_edge_is_reported(self):
        # edge 2 fails on its potential, edge 3 on its conductance
        fields = replace(
            build_edge_fields(3),
            conductance=(lambda x: 1.0 + x, lambda x: 1.0 + x, lambda x: x - 1.0),
            potential=(lambda x: 0.0 * x, lambda x: x - 1.0, lambda x: 0.0 * x))
        mesh = build_mesh(build_graph(4, [(1, 2), (1, 3), (1, 4)]), 3)
        with pytest.raises(NegativePotential, match="potential on edge 2 reaches"):
            assemble_form(mesh, fields, VertexMatrix(-np.eye(4)))

    def test_rejects_invalid_vertex_matrix(self):
        with pytest.raises(ValidationFailure):
            single_edge_system(M=((1.0, 0.0), (0.0, -1.0)))


class TestFormProperties:
    def test_exact_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sys = random_system(rng)
            total = (sys.stiffness_potential + sys.vertex_coupling).tocsr()
            assert (total - total.T).nnz == 0

    def test_accretivity_random_vectors(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            sys = random_system(rng)
            total = (sys.stiffness_potential + sys.vertex_coupling).toarray()
            norm = np.linalg.norm(total)
            for _ in range(20):
                x = rng.standard_normal(sys.ndof)
                assert x @ total @ x >= -1e-10 * norm * (x @ x)

    def test_constants_in_kernel_when_conserved(self):
        graph = build_graph(3, [(1, 2), (2, 3)])
        mesh = build_mesh(graph, 4)
        fields = build_edge_fields(2, weights=[2.0, 3.0])
        M = VertexMatrix(np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]]))
        sys = assemble_form(mesh, fields, M)
        ones = np.ones(sys.ndof)
        np.testing.assert_allclose((sys.stiffness_potential + sys.vertex_coupling) @ ones,
                                   0.0, atol=1e-14)
        # mass balance: 1^T A_form u = 0 for any u
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = rng.standard_normal(sys.ndof)
            assert abs(ones @ (sys.form_matrix @ u)) < 1e-12

    def test_form_convergence_second_order(self):
        # a_h(Iu, Iv) converges to the exact bilinear form at O(h^2)
        graph = build_graph(2, [(1, 2)])
        c = lambda x: 1.0 + 0.5 * x
        p = lambda x: 0.5 + x ** 2
        mu = 1.7
        M = np.array([[-2.0, 1.0], [1.0, -2.0]])
        u = lambda x: np.sin(np.pi * x) + 0.3 * x
        du = lambda x: np.pi * np.cos(np.pi * x) + 0.3
        v = lambda x: np.cos(0.5 * np.pi * x)
        dv = lambda x: -0.5 * np.pi * np.sin(0.5 * np.pi * x)
        exact = mu * quad(lambda x: c(x) * du(x) * dv(x), 0, 1)[0] \
            + mu * quad(lambda x: p(x) * u(x) * v(x), 0, 1)[0] \
            - np.array([u(0), u(1)]) @ M @ np.array([v(0), v(1)])
        errors = []
        for n_int in (7, 15, 31):
            mesh = build_mesh(graph, n_int)
            fields = build_edge_fields(1, c, p, mu)
            sys = assemble_form(mesh, fields, VertexMatrix(M))
            uh = interpolate(mesh, u)
            vh = interpolate(mesh, v)
            form = uh @ ((sys.stiffness_potential + sys.vertex_coupling) @ vh)
            errors.append(abs(form - exact))
        rates = np.diff(np.log(errors)) / np.log(0.5)
        assert np.all(rates > 1.7)


class TestMassFactor:
    def test_factor_reproduces_mass(self):
        sys = single_edge_system()
        L = noise_covariance_factor(sys).toarray()
        np.testing.assert_allclose(L @ L.T, sys.mass.toarray(), atol=1e-14)

    def test_factor_is_lower_triangular(self):
        rng = np.random.default_rng(5)
        sys = random_system(rng)
        L = noise_covariance_factor(sys).toarray()
        assert np.allclose(L, np.tril(L))

    def test_lumped_factor_is_diagonal_sqrt(self):
        sys = single_edge_system()
        L = noise_covariance_factor(sys, lumped=True).toarray()
        np.testing.assert_allclose(L, np.diag(np.sqrt(sys.lumped_mass)), atol=1e-15)

    def test_empirical_covariance_small_sample(self):
        # quick version of the covariance acceptance check: 20000 draws
        sys = single_edge_system(n_int=3)
        L = noise_covariance_factor(sys).toarray()
        rng = np.random.default_rng(123)
        n_draw = 20000
        z = rng.standard_normal((n_draw, sys.ndof))
        incs = z @ L.T
        emp = incs.T @ incs / n_draw
        G = sys.mass.toarray()
        se = np.sqrt((np.outer(np.diag(G), np.diag(G)) + G ** 2) / n_draw)
        assert np.all(np.abs(emp - G) <= 4.0 * se)

    @pytest.mark.parametrize("seed", [None, "unordered_path", 0, 1, 2, 3, 4])
    def test_factor_matches_dense_cholesky(self, seed):
        if seed is None:
            sys = single_edge_system(n_int=5)
        elif seed == "unordered_path":
            # path 1-2-3-4 listed out of path order: the middle edge comes last
            graph = build_graph(4, [(1, 2), (3, 4), (2, 3)])
            sys = assemble_form(build_mesh(graph, 6), build_edge_fields(3),
                                VertexMatrix(-np.eye(4)))
        else:
            sys = random_system(np.random.default_rng(seed))
        G = sys.mass.toarray()
        dense = np.linalg.cholesky(G)
        L = noise_covariance_factor(sys).toarray()
        np.testing.assert_allclose(L, dense, rtol=1e-12, atol=1e-15 * np.abs(G).max())
        assert np.array_equal(L != 0.0, dense != 0.0)

    def test_large_star_factor_stays_sparse(self):
        # 60,004 dofs: a dense factorization would need about 29 GB
        graph = build_graph(4, [(1, 2), (1, 3), (1, 4)])
        sys = assemble_form(build_mesh(graph, 20000), build_edge_fields(3),
                            VertexMatrix(-np.eye(4)))
        L = noise_covariance_factor(sys)
        assert sys.ndof == 60004
        assert L.nnz <= 3 * sys.ndof
        residual = abs(L @ L.T - sys.mass).max()
        assert residual <= 1e-12 * abs(sys.mass).max()

    def test_factorization_failure_raised(self):
        sys = single_edge_system()
        bad = sys.mass.copy().tolil()
        bad[0, 0] = -1.0
        with pytest.raises(FactorizationFailure):
            noise_covariance_factor(replace(sys, mass=bad.tocsr()))

    def test_singular_mass_raises_factorization_failure(self):
        sys = single_edge_system(n_int=3)
        bad = sys.mass.copy().tolil()
        bad[1, :] = 0.0
        bad[:, 1] = 0.0
        with pytest.raises(FactorizationFailure):
            noise_covariance_factor(replace(sys, mass=bad.tocsr()))


def special_values(shape, rng):
    """Normal values with one each of -0.0, the smallest subnormal, +-inf and
    nan, in columns 0-4 when 2-D, so the later columns stay finite."""
    x = rng.standard_normal(shape)
    columns = x.reshape(shape[0], -1)
    for i, value in enumerate((-0.0, 5e-324, np.inf, -np.inf, np.nan)):
        columns[rng.integers(shape[0]), i % columns.shape[1]] = value
    return x


def same_bits(got, want):
    """Equal values, nan for nan, and the same sign on every zero."""
    finite = ~np.isnan(want)
    return (np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got[finite]), np.signbit(want[finite])))


class TestBoundMatvec:
    """``bind_matvec`` calls SciPy's private CSR kernels; it must keep
    matching ``A @ x`` bit for bit, so that a SciPy upgrade that changes
    those kernels fails here instead of moving artifact bytes."""

    @staticmethod
    def matrices(sys):
        return {
            "mass": sys.mass,
            "lumped_mass": sp.diags(sys.lumped_mass, format="csr"),
            "factor": noise_covariance_factor(sys),
            "lumped_factor": noise_covariance_factor(sys, lumped=True),
            "implicit": (sys.mass - 0.01 * sys.form_matrix).tocsr(),
        }

    @pytest.mark.parametrize("seed", ["star", 0, 1, 2, 3, 4])
    def test_matches_scipy_product(self, seed):
        if seed == "star":
            graph = build_graph(4, [(1, 2), (1, 3), (1, 4)])
            sys = assemble_form(build_mesh(graph, 8), build_edge_fields(3, weights=[1.0, 2.0, 0.5]),
                                VertexMatrix(-np.eye(4)))
        else:
            sys = random_system(np.random.default_rng(seed))
        rng = np.random.default_rng(17)
        for name, A in self.matrices(sys).items():
            matvec = bind_matvec(A)
            vector = special_values((A.shape[1],), rng)
            block = special_values((A.shape[1], 7), rng)
            rows = special_values((5, A.shape[1]), rng)
            assert same_bits(matvec(vector), A @ vector), name
            assert same_bits(matvec(block), A @ block), name
            # increment rows as the Hölder E2 norm passes them: a transposed view
            assert same_bits(matvec(rows.T), A @ rows.T), name

    def test_out_is_overwritten_and_checked(self):
        sys = single_edge_system(n_int=4)
        matvec = bind_matvec(sys.mass)
        x = np.arange(2.0 * sys.ndof).reshape(sys.ndof, 2)
        out = np.full((sys.ndof, 2), 7.0)
        assert matvec(x, out=out) is out
        assert np.array_equal(out, sys.mass @ x)
        with pytest.raises(DimensionMismatch):
            matvec(x[:-1])
        with pytest.raises(DimensionMismatch):
            matvec(x, out=np.empty((sys.ndof, 3)))
        with pytest.raises(ValueError):
            matvec(x, out=np.empty((2, sys.ndof)).T)


def test_matrix_market_dump(tmp_path):
    sys = single_edge_system()
    files = dump_matrices(sys, tmp_path)
    assert len(files) == 4
    import scipy.io
    reread = scipy.io.mmread(tmp_path / "mass.mtx")
    np.testing.assert_allclose(reread.toarray(), sys.mass.toarray(), atol=1e-15)


def _matrix_bytes(system):
    mats = (system.mass, system.stiffness_potential, system.vertex_coupling,
            system.form_matrix)
    return [(A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes()) for A in mats]


_COEFFICIENT_KINDS = ("constant", "string", "expression", "samples", "callable")


def _coefficient(kind, rng, floor):
    """An x-dependent coefficient (constant for ``kind == "constant"``) of
    the given kind, with values in [floor, floor + 2]."""
    a, b = (float(v) for v in rng.uniform(0.0, 1.0, 2))
    if kind == "constant":
        return floor + a
    if kind == "string":
        return f"{floor + a!r} + ({b!r})*x*x"
    if kind == "expression":
        return parse_expression(f"{floor + a!r} + ({b!r})*sin(3*x)^2", ("x",))
    if kind == "samples":
        return floor + rng.uniform(0.0, 1.0, int(rng.integers(2, 6)))
    return lambda x: floor + a + b * np.cos(2.0 * x) ** 2


def _random_coefficients(rng, m, floor):
    if rng.random() < 0.25:
        return _coefficient(str(rng.choice(_COEFFICIENT_KINDS)), rng, floor)
    return [_coefficient(str(kind), rng, floor) for kind in rng.choice(_COEFFICIENT_KINDS, m)]


def test_one_pass_assembly_matches_edge_by_edge_oracle():
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        mesh = random_multigraph_mesh(rng)
        n, m = mesh.graph.n_vertices, mesh.n_edges
        weights = rng.uniform(0.5, 2.0, m) if rng.random() < 0.75 else 1.0
        fields = build_edge_fields(m, _random_coefficients(rng, m, 0.1),
                                   _random_coefficients(rng, m, 0.0), weights)
        B = rng.standard_normal((n, n))
        M = -(B @ B.T)
        matrix = VertexMatrix(0.5 * (M + M.T) - 0.1 * np.eye(n))
        system = assemble_form(mesh, fields, matrix)
        G, S, K, A_form, lumped = reference_assemble_form(mesh, fields, matrix)
        assert _matrix_bytes(system) == [(A.indptr.tobytes(), A.indices.tobytes(),
                                          A.data.tobytes()) for A in (G, S, K, A_form)]
        assert system.lumped_mass.tobytes() == lumped.tobytes()


@pytest.mark.parametrize("potential", [0.25, [0.25, "x*(1-x)", 0.0]])
def test_shifted_potential_assembles_like_a_pointwise_shift(potential):
    """A constant p_j shifted by rho_j stays constant; assembly sees the
    samples of p_j(x) + rho_j taken point by point."""
    mesh = build_mesh(build_graph(4, [(1, 2), (1, 3), (1, 4)]), 5)
    base = build_edge_fields(3, potential=potential)
    spec = allen_cahn_system([1.0, 1.5, 2.0], base)
    pointwise = EdgeFieldSet(base.conductance, tuple(
        EdgeFunction(lambda x, p=p, s=s: p(x) + s) for p, s in zip(base.potential, spec.rho)),
        base.weights)
    matrix = VertexMatrix(-np.eye(4))
    system = assemble_form(mesh, spec.fields, matrix)
    G, S, K, A_form, lumped = reference_assemble_form(mesh, pointwise, matrix)
    assert _matrix_bytes(system) == [(A.indptr.tobytes(), A.indices.tobytes(),
                                      A.data.tobytes()) for A in (G, S, K, A_form)]
    assert system.lumped_mass.tobytes() == lumped.tobytes()


class TestOneCoefficientFiveSpellings:
    SPELLINGS = (2, "2", parse_expression("2"), [2.0, 2.0], lambda x: 2.0 + 0.0 * x)

    def test_constness_detected_once(self):
        assert ([as_edge_function(v).constant for v in self.SPELLINGS]
                == [2.0, 2.0, 2.0, None, None])

    def test_same_matrices_and_states(self):
        mesh = build_mesh(build_graph(4, [(1, 2), (1, 3), (1, 4)]), 5)
        matrix = VertexMatrix(-np.eye(4))
        outcomes = [
            (_matrix_bytes(assemble_form(mesh, build_edge_fields(3, v, v), matrix)),
             interpolate(mesh, v).tobytes())
            for v in self.SPELLINGS
        ]
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])


def random_step_system(rng):
    """A system on a random multigraph mesh with random coefficients and a
    random negative definite vertex matrix, and a random step size."""
    mesh = random_multigraph_mesh(rng)
    n, m = mesh.graph.n_vertices, mesh.n_edges
    fields = build_edge_fields(m, _random_coefficients(rng, m, 0.1),
                               _random_coefficients(rng, m, 0.0), rng.uniform(0.5, 2.0, m))
    B = rng.standard_normal((n, n))
    M = -(B @ B.T)
    system = assemble_form(mesh, fields, VertexMatrix(0.5 * (M + M.T) - 0.1 * np.eye(n)))
    return system, float(10.0 ** rng.uniform(-4.0, -1.0))


class TestArrowheadSolver:
    def test_matches_dense_solve_on_random_multigraphs(self):
        rng = np.random.default_rng(20261020)
        seen = set()
        for k in range(200):
            system, dt = random_step_system(rng)
            mesh, n = system.mesh, system.mesh.graph.n_vertices
            step = (system.mass - dt * system.form_matrix).tocsr()
            if k % 2:
                # a vertex block that is not symmetric: the solve reads C and R apart
                vertex = mesh.vertex_dofs
                block = np.zeros((system.ndof, system.ndof))
                scale = np.abs(step.diagonal()[vertex]).min()
                block[np.ix_(vertex, vertex)] = 0.2 * scale * rng.uniform(-1.0, 1.0, (n, n))
                step = (step + sp.csr_matrix(block)).tocsr()
            dense = step.toarray()
            b = rng.standard_normal(system.ndof)
            want = np.linalg.solve(dense, b)
            got = arrowhead_solver(step, mesh)(b.copy())
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), k
            seen.add(mesh.n_interior)
            if k % 4 == 0:
                # a Stepper of either scheme takes one step through the same solve
                u = rng.uniform(-1.0, 1.0, system.ndof)
                drift = polynomial_drift(1, [0.5, 1.0, 0.0, 1.0], n_edges=mesh.n_edges)
                for scheme in SCHEMES:
                    stepper = Stepper(Problem(system, SolverConfig(dt, dt, scheme), u, drift))
                    forcing = stepper.drift(0.0, u)
                    if scheme == "semi_implicit_tamed":
                        forcing = forcing / (1.0 + dt * np.abs(forcing).max())
                    want = np.linalg.solve(
                        (system.mass - dt * system.form_matrix).toarray(),
                        system.mass @ (u + dt * forcing))
                    got = stepper.step(u, 0.0, None)
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (k, scheme)
        assert seen == set(range(1, 9))

    def test_block_columns_equal_single_solves(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            system, dt = random_step_system(rng)
            solve = arrowhead_solver(system.mass - dt * system.form_matrix, system.mesh)
            block = rng.standard_normal((system.ndof, 64))
            singles = np.column_stack([solve(column.copy()) for column in block.T])
            assert np.array_equal(solve(block.copy()), singles)

    def test_one_interior_node_on_one_edge(self):
        # the interior block is 1 x 1: its off-diagonal is empty
        system = single_edge_system(n_int=1)
        step = (system.mass - 0.01 * system.form_matrix).tocsr()
        b = np.array([1.0, -2.0, 0.5])
        assert np.allclose(arrowhead_solver(step, system.mesh)(b.copy()),
                           np.linalg.solve(step.toarray(), b), rtol=1e-14, atol=0.0)

    def test_interior_not_positive_definite_raises(self):
        system = random_system(np.random.default_rng(3))
        step = (system.mass - 0.01 * system.form_matrix).tocsr()
        with pytest.raises(LinearSolveFailure, match="not positive definite"):
            arrowhead_solver(-step, system.mesh)

    def test_singular_vertex_schur_complement_raises(self):
        system = single_edge_system(n_int=3)
        step = (system.mass - 0.01 * system.form_matrix).tolil()
        # vertex dofs 3 and 4 lose their couplings and their block: S = D - R W is 0
        step[3:, :] = 0.0
        step[:, 3:] = 0.0
        with pytest.raises(LinearSolveFailure, match="singular"):
            arrowhead_solver(step.tocsr(), system.mesh)

    def test_vertex_limit_raises_before_anything_n_by_n(self, monkeypatch):
        n = 300
        graph = build_graph(n, [(1, k) for k in range(2, n + 1)])
        system = assemble_form(build_mesh(graph, 1), build_edge_fields(n - 1),
                               VertexMatrix(-np.eye(n)))
        step = (system.mass - 0.01 * system.form_matrix).tocsr()
        monkeypatch.setattr(assembly, "VERTEX_LIMIT", n - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match=f"VERTEX_LIMIT = {n - 1} vertices"):
                arrowhead_solver(step, system.mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n // 4
        monkeypatch.setattr(assembly, "VERTEX_LIMIT", n)
        arrowhead_solver(step, system.mesh)
