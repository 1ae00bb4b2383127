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

from .errors import ConfigurationError, MeshTooCoarse, VertexMismatch
from .fields import edge_functions, float_samples
from .graph import MetricGraph


@dataclass(frozen=True)
class Mesh:
    graph: MetricGraph
    n_interior: int
    h: float
    ndof: int
    edge_dofs: np.ndarray    # (m, n_interior+2) global dof of each local node
    vertex_dofs: np.ndarray  # (n,) global dof of vertex i at index i-1

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges


def build_mesh(graph: MetricGraph, n_interior: int) -> Mesh:
    """Mesh every edge with ``n_interior >= 1`` interior nodes."""
    n_int = int(n_interior)
    if n_int < 1:
        raise MeshTooCoarse(f"need at least one interior node per edge, got {n_int}")
    n, m = graph.n_vertices, graph.n_edges
    vertex_dofs = m * n_int + np.arange(n)

    edge_dofs = np.empty((m, n_int + 2), dtype=int)
    for j, (a, b) in enumerate(graph.edge_array()):
        edge_dofs[j, 0] = vertex_dofs[a]
        edge_dofs[j, 1:-1] = j * n_int + np.arange(n_int)
        edge_dofs[j, -1] = vertex_dofs[b]
    return Mesh(graph, n_int, 1.0 / (n_int + 1), m * n_int + n, edge_dofs, vertex_dofs)


def node_coordinates(mesh: Mesh) -> np.ndarray:
    """Local coordinates of the n_interior+2 nodes along one edge."""
    return np.linspace(0.0, 1.0, mesh.n_interior + 2)


def write_edge_values(mesh: Mesh, edge_values, out: np.ndarray) -> np.ndarray:
    """Fill the dof vector ``out`` edge by edge and return it.

    ``edge_values(j, dofs)`` gives edge j's values at ``node_coordinates(mesh)``
    on its dofs ``mesh.edge_dofs[j]``.  The edges are written in reverse
    order, so a vertex dof shared by several edges keeps the value of its
    lowest-index incident edge.
    """
    for j in range(mesh.n_edges - 1, -1, -1):
        dofs = mesh.edge_dofs[j]
        out[dofs] = edge_values(j, dofs)
    return out


# largest difference allowed between two edges' values at a shared vertex
VERTEX_TOL = 1e-12


def interpolate(mesh: Mesh, functions) -> np.ndarray:
    """Nodal interpolation of per-edge functions into a coefficient vector.

    ``functions`` is a shared value or a per-edge list of anything
    ``fields.as_edge_function`` takes.  The nodal values must be
    finite, and the supplied functions must agree at shared vertices to
    within ``VERTEX_TOL``.
    """
    xs = node_coordinates(mesh)
    values = []
    for j, fn in enumerate(edge_functions(functions, mesh.n_edges)):
        v = float_samples(fn, xs)
        if not np.isfinite(v).all():
            k = int(np.argmin(np.isfinite(v)))
            raise ConfigurationError(
                f"edge {j + 1} supplies the non-finite value {float(v[k])} at x={float(xs[k])}")
        values.append(v)
    state = write_edge_values(mesh, lambda j, dofs: values[j], np.empty(mesh.ndof))
    for j, (v, dofs) in enumerate(zip(values, mesh.edge_dofs)):
        bad = np.flatnonzero(np.abs(state[dofs] - v) > VERTEX_TOL)
        if bad.size:
            raise VertexMismatch(
                f"edge {j + 1} supplies {v[bad[0]]!r} at a shared vertex "
                f"already set to {state[dofs[bad[0]]]!r}")
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
