import numpy as np
import pytest

from netsde.errors import (
    ConfigurationError,
    DimensionMismatch,
    DisconnectedGraph,
    EmptyEdgeList,
    LoopEdge,
    VertexIdOutOfRange,
)
from netsde.graph import VertexMatrix, build_graph, validate_vertex_matrix


def path3():
    return build_graph(3, [(1, 2), (2, 3)])


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


def test_graph_is_immutable():
    g = path3()
    with pytest.raises(Exception):
        g.n_vertices = 5
