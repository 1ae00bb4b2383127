"""Continuous piecewise-linear finite elements on a metric graph.

Each edge carries a uniform mesh with ``n_interior`` interior nodes
(spacing ``h = 1/(n_interior+1)``).  All edge endpoints meeting at a vertex
share a single global degree of freedom, so every coefficient vector is
automatically continuous across vertices and the vertex value is read
directly from the shared dof.

Global dof layout: interior dofs come first, edge by edge, and the n vertex
dofs sit at the end.  This arrowhead ordering keeps the fill-in of the
sparse mass-matrix Cholesky factor (``assembly.noise_covariance_factor``)
confined to the trailing vertex rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeshTooCoarse, VertexMismatch
from .fields import as_edge_function, _per_edge
from .graph import MetricGraph


@dataclass(frozen=True)
class Mesh:
    graph: MetricGraph
    n_interior: int
    h: float
    ndof: int
    edge_dofs: np.ndarray    # (m, n_interior+2) global dof of each local node
    vertex_dofs: np.ndarray  # (n,) global dof of vertex i at index i-1
    dof_edge: np.ndarray     # (ndof,) 0-based owning edge (representative for vertices)
    dof_x: np.ndarray        # (ndof,) local coordinate on the owning edge

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges


def build_mesh(graph: MetricGraph, n_interior: int) -> Mesh:
    """Mesh every edge with ``n_interior >= 1`` interior nodes."""
    n_int = int(n_interior)
    if n_int < 1:
        raise MeshTooCoarse(f"need at least one interior node per edge, got {n_int}")
    n, m = graph.n_vertices, graph.n_edges
    h = 1.0 / (n_int + 1)
    ndof = m * n_int + n
    vertex_dofs = m * n_int + np.arange(n)

    edge_dofs = np.empty((m, n_int + 2), dtype=int)
    edges0 = graph.edge_array()
    for j, (a, b) in enumerate(edges0):
        edge_dofs[j, 0] = vertex_dofs[a]
        edge_dofs[j, 1:-1] = j * n_int + np.arange(n_int)
        edge_dofs[j, -1] = vertex_dofs[b]

    dof_edge = np.zeros(ndof, dtype=int)
    dof_x = np.zeros(ndof)
    for j in range(m):
        sl = slice(j * n_int, (j + 1) * n_int)
        dof_edge[sl] = j
        dof_x[sl] = h * np.arange(1, n_int + 1)
    # vertex dofs evaluate through the lowest-index incident edge
    for j in range(m - 1, -1, -1):
        a, b = edges0[j]
        dof_edge[vertex_dofs[a]] = j
        dof_x[vertex_dofs[a]] = 0.0
        dof_edge[vertex_dofs[b]] = j
        dof_x[vertex_dofs[b]] = 1.0

    return Mesh(graph, n_int, h, ndof, edge_dofs, vertex_dofs, dof_edge, dof_x)


def node_coordinates(mesh: Mesh) -> np.ndarray:
    """Local coordinates of the n_interior+2 nodes along one edge."""
    return np.linspace(0.0, 1.0, mesh.n_interior + 2)


def interpolate(mesh: Mesh, functions, vertex_tol: float = 1e-12) -> np.ndarray:
    """Nodal interpolation of per-edge functions into a coefficient vector.

    ``functions`` is a shared spec or a per-edge list (scalars, Expressions,
    callables of x, or nodal sample arrays).  The supplied functions must
    agree at shared vertices to within ``vertex_tol``.
    """
    m = mesh.n_edges
    fns = [as_edge_function(v) for v in _per_edge(functions, m)]
    xs = node_coordinates(mesh)
    state = np.zeros(mesh.ndof)
    assigned = np.zeros(mesh.ndof, dtype=bool)
    for j in range(m):
        values = np.broadcast_to(np.asarray(fns[j](xs), dtype=float), xs.shape)
        for local, dof in enumerate(mesh.edge_dofs[j]):
            if assigned[dof]:
                if abs(state[dof] - values[local]) > vertex_tol:
                    raise VertexMismatch(
                        f"edge {j + 1} supplies {values[local]!r} at a shared vertex "
                        f"already set to {state[dof]!r}")
            else:
                state[dof] = values[local]
                assigned[dof] = True
    return state


def eval_state(mesh: Mesh, state: np.ndarray, edge: int, x):
    """Piecewise-linear reconstruction of a state on edge ``edge`` (1-based)."""
    nodes = np.asarray(state)[mesh.edge_dofs[edge - 1]]
    x = np.asarray(x, dtype=float)
    s = x * (mesh.n_interior + 1)
    k = np.clip(np.floor(s).astype(int), 0, mesh.n_interior)
    theta = s - k
    return (1.0 - theta) * nodes[k] + theta * nodes[k + 1]


_GAUSS_XI = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


def edge_integral(mesh: Mesh, state: np.ndarray, density, weights) -> float:
    """sum_j weights[j] * int_0^1 density(u_h) dx for the piecewise-linear
    interpolant u_h of ``state``, by 2-point Gauss quadrature per element."""
    h = mesh.h
    total = 0.0
    for j in range(mesh.n_edges):
        nodes = state[mesh.edge_dofs[j]]
        left, right = nodes[:-1], nodes[1:]
        acc = 0.0
        for xi in _GAUSS_XI:
            acc += 0.5 * h * np.sum(density((1.0 - xi) * left + xi * right))
        total += weights[j] * acc
    return total
