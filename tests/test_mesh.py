import numpy as np
import pytest

from netsde.errors import MeshTooCoarse, VertexMismatch
from netsde.fields import build_edge_fields
from netsde.graph import build_graph
from netsde.mesh import build_mesh, eval_state, interpolate


def path3_mesh(n_int=3):
    return build_mesh(build_graph(3, [(1, 2), (2, 3)]), n_int)


class TestBuildMesh:
    def test_single_edge_dof_count(self):
        mesh = build_mesh(build_graph(2, [(1, 2)]), 1)
        assert mesh.ndof == 3

    def test_path3_dof_count(self):
        assert path3_mesh(3).ndof == 2 * 3 + 3

    def test_too_coarse(self):
        with pytest.raises(MeshTooCoarse):
            build_mesh(build_graph(4, [(1, 2), (1, 3), (1, 4)]), 0)

    def test_shared_vertex_dofs(self):
        mesh = path3_mesh()
        # the end of edge 1 and the start of edge 2 are the same dof (vertex 2)
        assert mesh.edge_dofs[0, -1] == mesh.edge_dofs[1, 0] == mesh.vertex_dofs[1]

    def test_dof_layout(self):
        mesh = path3_mesh(2)
        assert set(mesh.edge_dofs.ravel()) == set(range(mesh.ndof))
        assert list(mesh.vertex_dofs) == [4, 5, 6]


class TestInterpolate:
    def test_constant_one(self):
        mesh = path3_mesh()
        np.testing.assert_array_equal(interpolate(mesh, 1.0), np.ones(mesh.ndof))

    def test_vertex_mismatch_detected(self):
        mesh = path3_mesh()
        with pytest.raises(VertexMismatch):
            interpolate(mesh, [lambda x: 2.0 * np.ones_like(x), lambda x: 3.0 * np.ones_like(x)])

    def test_continuous_pair_accepted(self):
        mesh = path3_mesh()
        # uencodes x on edge 1 and 1+x on edge 2: continuous at vertex 2
        u = interpolate(mesh, [lambda x: x, lambda x: 1.0 + x])
        assert u[mesh.vertex_dofs[0]] == 0.0
        assert u[mesh.vertex_dofs[1]] == 1.0
        assert u[mesh.vertex_dofs[2]] == 2.0

    def test_eval_round_trip_at_nodes(self):
        mesh = path3_mesh()
        u = interpolate(mesh, [lambda x: x ** 2, lambda x: 1.0 + 2.0 * x])
        xs = np.linspace(0.0, 1.0, mesh.n_interior + 2)
        np.testing.assert_allclose(eval_state(mesh, u, 1, xs), xs ** 2, atol=1e-15)
        np.testing.assert_allclose(eval_state(mesh, u, 2, xs), 1.0 + 2.0 * xs, atol=1e-15)

    def test_eval_is_linear_between_nodes(self):
        mesh = build_mesh(build_graph(2, [(1, 2)]), 1)
        u = interpolate(mesh, lambda x: np.abs(x - 0.5))
        assert eval_state(mesh, u, 1, 0.25) == pytest.approx(0.25)
