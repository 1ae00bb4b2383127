import numpy as np
import pytest

from _oracles import random_multigraph_mesh, reference_interpolate
from netsde.errors import ConfigurationError, MeshTooCoarse, VertexMismatch
from netsde.expressions import parse_expression
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

    @pytest.mark.parametrize("spec, where", [
        ("1e400*x", "nan at x=0.0"),
        ("1e400 + x", "inf at x=0.0"),
        ("exp(800*x)", "inf at x=1.0"),
    ])
    def test_non_finite_nodal_values_rejected(self, spec, where):
        mesh = path3_mesh()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConfigurationError, match=f"edge 2 supplies the non-finite value {where}"):
                interpolate(mesh, [lambda x: 1.0 - x, parse_expression(spec, ("x",))])

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


def _edge_spec(kind, rng, left, right):
    """One edge's spec in the form ``kind`` with values ``left`` at x = 0 and
    close to ``right`` at x = 1."""
    bump = float(rng.uniform(-1.0, 1.0))
    if kind == "scalar":
        return left
    if kind == "expression":
        return parse_expression(
            f"({left!r}) + (({right!r}) - ({left!r}))*x + ({bump!r})*x*(1 - x)", ("x",))
    if kind == "samples":
        inner = rng.uniform(-1.0, 1.0, int(rng.integers(0, 4)))
        return np.array([left, *inner, right])
    if kind == "callable":
        return lambda x: left + (right - left) * x + bump * np.sin(np.pi * x)
    return lambda x: left  # a callable returning one float for every node


_KINDS = ("scalar", "expression", "samples", "callable", "callable_scalar")
# vertex offsets: none, within VERTEX_TOL, just beyond it, and far beyond
_OFFSETS = (0.0, 0.0, 0.0, 0.0, 3e-13, -4e-13, 2e-12, 0.25)


def _random_spec(rng, mesh):
    """A shared or per-edge spec for ``mesh`` whose edge values at each
    vertex agree up to one of ``_OFFSETS``."""
    graph = mesh.graph
    vertex = (np.full(graph.n_vertices, float(rng.uniform(-1.0, 1.0)))
              if rng.random() < 0.5 else rng.uniform(-1.0, 1.0, graph.n_vertices))
    form = rng.integers(4)
    if form == 0:  # one shared spec
        a, b = graph.edges[0]
        return _edge_spec(str(rng.choice(_KINDS)), rng, float(vertex[a - 1]), float(vertex[b - 1]))
    if form == 1:  # shared nodal samples as a plain list, of a length other than m
        size = int(rng.integers(2, 7))
        size += size == graph.n_edges
        return [float(v) for v in rng.uniform(-1.0, 1.0, size)]
    kinds = [str(rng.choice(_KINDS))] * graph.n_edges if form == 2 else \
        [str(k) for k in rng.choice(_KINDS, graph.n_edges)]
    specs = []
    for kind, (a, b) in zip(kinds, graph.edges):
        left, right = (float(vertex[i - 1] + rng.choice(_OFFSETS)) for i in (a, b))
        specs.append(_edge_spec(kind, rng, left, right))
    return specs


def test_interpolate_matches_node_by_node_oracle():
    rng = np.random.default_rng(20261018)
    outcomes = {"equal": 0, "mismatch": 0}
    for _ in range(1200):
        mesh = random_multigraph_mesh(rng)
        spec = _random_spec(rng, mesh)
        try:
            expected = reference_interpolate(mesh, spec)
        except VertexMismatch as err:
            with pytest.raises(VertexMismatch) as raised:
                interpolate(mesh, spec)
            assert str(raised.value) == str(err)
            outcomes["mismatch"] += 1
        else:
            assert interpolate(mesh, spec).tobytes() == expected.tobytes()
            outcomes["equal"] += 1
    assert min(outcomes.values()) >= 200, outcomes
