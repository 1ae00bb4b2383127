import numpy as np
import pytest

from _oracles import random_multigraph_mesh, reference_weighted_incidence
from netsde.errors import (
    ConfigurationError,
    DimensionMismatch,
    DisconnectedGraph,
    EmptyEdgeList,
    LoopEdge,
    NonpositiveConductance,
    NonpositiveWeight,
    VertexIdOutOfRange,
)
from netsde.graph import (
    VertexMatrix,
    build_graph,
    edge_indices_at_vertex,
    incidence_matrices,
    validate_vertex_matrix,
    weighted_incidence,
)


def path3():
    return build_graph(3, [(1, 2), (2, 3)])


def star3():
    return build_graph(4, [(1, 2), (1, 3), (1, 4)])


class TestBuildGraph:
    def test_path_graph(self):
        g = path3()
        assert g.n_vertices == 3 and g.n_edges == 2

    def test_parallel_edges_allowed(self):
        g = build_graph(2, [(1, 2), (1, 2)])
        assert g.n_edges == 2

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            build_graph(4, [(1, 2)])

    def test_empty_edges_rejected(self):
        with pytest.raises(EmptyEdgeList):
            build_graph(2, [])

    def test_vertex_id_out_of_range(self):
        with pytest.raises(VertexIdOutOfRange):
            build_graph(2, [(1, 3)])

    def test_loops_rejected(self):
        with pytest.raises(LoopEdge):
            build_graph(2, [(1, 2), (2, 2)])

    def test_connectivity_matches_reachability_oracle(self):
        # brute-force oracle: boolean transitive closure of the adjacency matrix
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 2 * n))
            edges = []
            for _ in range(m):
                a = int(rng.integers(1, n + 1))
                b = int(rng.integers(1, n + 1))
                if a != b:
                    edges.append((a, b))
            if not edges:
                continue
            adj = np.eye(n, dtype=bool)
            for a, b in edges:
                adj[a - 1, b - 1] = adj[b - 1, a - 1] = True
            reach = adj.copy()
            for _ in range(n):
                reach = reach | (reach @ adj)
            oracle_connected = bool(reach[0].all())
            try:
                build_graph(n, edges)
                built = True
            except DisconnectedGraph:
                built = False
            assert built == oracle_connected


class TestIncidence:
    def test_path3_matrices(self):
        plus, minus, phi = incidence_matrices(path3())
        assert np.array_equal(plus, [[1, 0], [0, 1], [0, 0]])
        assert np.array_equal(minus, [[0, 0], [1, 0], [0, 1]])
        assert np.array_equal(phi, [[1, 0], [-1, 1], [0, -1]])

    def test_single_edge(self):
        _, _, phi = incidence_matrices(build_graph(2, [(1, 2)]))
        assert np.array_equal(phi, [[1], [-1]])

    def test_star_start_row(self):
        plus, _, _ = incidence_matrices(star3())
        assert np.array_equal(plus[0], [1, 1, 1])

    def test_column_sums(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            edges = [(int(a), int(b)) for a, b in
                     [(rng.integers(1, n + 1), rng.integers(1, n + 1)) for _ in range(8)]
                     if a != b]
            edges += [(i, i + 1) for i in range(1, n)]  # force connectivity
            g = build_graph(n, edges)
            plus, minus, phi = incidence_matrices(g)
            assert np.array_equal(plus.sum(axis=0), np.ones(g.n_edges))
            assert np.array_equal(minus.sum(axis=0), np.ones(g.n_edges))
            assert np.array_equal(phi.sum(axis=0), np.zeros(g.n_edges))


class TestEdgeIndices:
    @pytest.mark.parametrize("vertex,expected", [(1, {1}), (2, {1, 2}), (3, {2})])
    def test_path3(self, vertex, expected):
        assert edge_indices_at_vertex(path3(), vertex) == expected

    def test_star_center(self):
        assert edge_indices_at_vertex(star3(), 1) == {1, 2, 3}

    def test_out_of_range(self):
        with pytest.raises(VertexIdOutOfRange):
            edge_indices_at_vertex(path3(), 4)

    def test_gamma_consistency_with_incidence(self):
        g = star3()
        plus, minus, _ = incidence_matrices(g)
        for i in range(1, g.n_vertices + 1):
            gamma = edge_indices_at_vertex(g, i)
            marked = {j + 1 for j in range(g.n_edges) if plus[i - 1, j] + minus[i - 1, j] >= 1}
            assert gamma == marked

    def test_union_covers_all_edges(self):
        g = path3()
        union = set()
        for i in range(1, g.n_vertices + 1):
            union |= edge_indices_at_vertex(g, i)
        assert union == {1, 2}


class TestVertexMatrix:
    def test_row_sum_zero_matrix_passes(self):
        report = validate_vertex_matrix(VertexMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]])))
        assert report.passed
        # eigenvalues are {0, -2}; the measured largest eigenvalue is ~0
        assert abs(report.check("negative_semidefinite").measured) < 1e-12

    def test_indefinite_fails(self):
        report = validate_vertex_matrix(VertexMatrix(np.array([[1.0, 0.0], [0.0, -1.0]])))
        assert not report.passed
        assert "negative_semidefinite" in report.failed_names()

    def test_diagonal_example_passes_both_profiles(self):
        M = VertexMatrix(np.array([[-1.0, 0.0], [0.0, 0.0]]))
        assert validate_vertex_matrix(M, "basic").passed
        assert validate_vertex_matrix(M, "strict").passed

    def test_asymmetric_fails(self):
        report = validate_vertex_matrix(VertexMatrix(np.array([[-1.0, 0.5], [0.0, -1.0]])))
        assert "symmetric" in report.failed_names()

    def test_zero_matrix_needs_override(self):
        assert not validate_vertex_matrix(VertexMatrix(np.zeros((2, 2)))).passed
        report = validate_vertex_matrix(VertexMatrix(np.zeros((2, 2)), zero_ok=True))
        assert report.passed
        assert "outside" in report.check("not_identically_zero").note

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_vertex_matrix(VertexMatrix(np.zeros((2, 2)), zero_ok=True), n_vertices=3)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown profile 'lax'"):
            validate_vertex_matrix(VertexMatrix(-np.eye(2)), "lax")

    def test_strict_implies_basic_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            off = rng.uniform(0.0, 1.0, (n, n))
            off = 0.5 * (off + off.T)
            np.fill_diagonal(off, 0.0)
            diag = -(off.sum(axis=1) + rng.uniform(0.0, 1.0, n))
            M = VertexMatrix(off + np.diag(diag))
            strict = validate_vertex_matrix(M, "strict")
            assert strict.passed
            assert validate_vertex_matrix(M, "basic").passed

    def test_negative_offdiagonal_fails_strict(self):
        M = VertexMatrix(np.array([[-2.0, -1.0], [-1.0, -2.0]]))
        assert validate_vertex_matrix(M, "basic").passed
        assert "nonnegative_offdiagonal" in validate_vertex_matrix(M, "strict").failed_names()


class TestWeightedIncidence:
    def test_single_edge_unit(self):
        g = build_graph(2, [(1, 2)])
        w_plus, w_minus = weighted_incidence(g, [1.0], [(1.0, 1.0)])
        assert np.array_equal(w_plus, [[1.0], [0.0]])
        assert np.array_equal(w_minus, [[0.0], [1.0]])

    def test_path3_weights(self):
        w_plus, _ = weighted_incidence(path3(), [2.0, 3.0], [(1.0, 1.0), (1.0, 1.0)])
        assert np.array_equal(w_plus, [[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])

    def test_zero_weight_rejected(self):
        with pytest.raises(NonpositiveWeight):
            weighted_incidence(path3(), [2.0, 0.0], [(1.0, 1.0), (1.0, 1.0)])

    @pytest.mark.parametrize("ends", [(0.0, 1.0), (1.0, -1.0), (np.inf, 1.0), (1.0, np.nan)])
    def test_endpoint_values_must_be_finite_and_positive(self, ends):
        with pytest.raises(NonpositiveConductance, match="finite and positive"):
            weighted_incidence(build_graph(2, [(1, 2)]), [1.0], [ends])

    def test_endpoint_values_used(self):
        g = build_graph(2, [(1, 2)])
        w_plus, w_minus = weighted_incidence(g, [2.0], [(1.5, 2.5)])
        assert w_plus[0, 0] == 3.0 and w_minus[1, 0] == 5.0

    def test_matches_entry_by_entry_oracle(self):
        rng = np.random.default_rng(20261019)
        for _ in range(200):
            graph = random_multigraph_mesh(rng).graph
            mu = rng.uniform(0.1, 10.0, graph.n_edges)
            ends = rng.uniform(0.1, 10.0, (graph.n_edges, 2))
            got = weighted_incidence(graph, mu, ends)
            expected = reference_weighted_incidence(graph, mu, ends)
            assert [w.tobytes() for w in got] == [w.tobytes() for w in expected]


def test_graph_is_immutable():
    g = path3()
    with pytest.raises(Exception):
        g.n_vertices = 5
