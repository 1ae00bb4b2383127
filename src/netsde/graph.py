"""Finite connected metric graphs and the vertex coupling matrix.

Vertices carry ids 1..n and edges are numbered 1..m in the order supplied,
matching the conventions used in run configurations.  Each edge is
parametrized on [0,1] with the first vertex of the pair at 0 and the second
at 1.  Other modules read the topology from ``MetricGraph.edge_array()``
alone: row ``j-1`` holds edge ``j``'s (start, end) as 0-based vertex indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    ConfigurationError,
    DimensionMismatch,
    DisconnectedGraph,
    EmptyEdgeList,
    LoopEdge,
    VertexIdOutOfRange,
)
from .report import Check, ValidationReport


@dataclass(frozen=True)
class MetricGraph:
    """A finite connected graph with unit-interval edge parametrization."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]  # 1-based (start, end) vertex ids

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_array(self) -> np.ndarray:
        """Edges as a 0-based (m, 2) integer array."""
        return np.asarray(self.edges, dtype=int) - 1


def build_graph(n_vertices: int, edge_list) -> MetricGraph:
    """Validate and freeze a metric graph.

    Rejects loops (an edge from a vertex to itself would put two marks in a
    single incidence column), empty edge lists, out-of-range vertex ids and
    disconnected graphs.  Parallel edges are allowed.
    """
    n = int(n_vertices)
    if n < 1:
        raise VertexIdOutOfRange(f"need at least one vertex, got {n}")
    edges = [(int(a), int(b)) for a, b in edge_list]
    if not edges:
        raise EmptyEdgeList("the edge list is empty")
    for k, (a, b) in enumerate(edges, start=1):
        if not (1 <= a <= n and 1 <= b <= n):
            raise VertexIdOutOfRange(f"edge {k} = ({a},{b}) has a vertex id outside 1..{n}")
        if a == b:
            raise LoopEdge(f"edge {k} is a loop at vertex {a}; loops are not supported")
    # one entry per edge, in the row of its first vertex; sorted pairs are in CSR row order
    first, second = (np.array(ids) - 1 for ids in zip(*sorted(edges)))
    indptr = np.searchsorted(first, np.arange(n + 1))
    adjacency = sp.csr_matrix((np.ones(len(edges)), second, indptr), shape=(n, n))
    if connected_components(adjacency, directed=False, return_labels=False) != 1:
        raise DisconnectedGraph("graph is not connected (orientation ignored)")
    return MetricGraph(n_vertices=n, edges=tuple(edges))


@dataclass(frozen=True)
class VertexMatrix:
    """The symmetric vertex coupling matrix of the Kirchhoff-type law.

    ``zero_ok`` permits the all-zero matrix (classical Kirchhoff conditions);
    that case is outside the structural assumptions the analysis relies on
    and is flagged in validation reports.
    """

    entries: np.ndarray
    zero_ok: bool = False

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DimensionMismatch(f"vertex matrix must be square, got shape {entries.shape}")
        entries = entries.copy()
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def validate_vertex_matrix(matrix: VertexMatrix, profile: str = "basic",
                           n_vertices: int | None = None) -> ValidationReport:
    """Check the structural requirements on the vertex matrix.

    The basic profile requires exact symmetry, negative semidefiniteness
    (largest eigenvalue below a scaled tolerance) and that the matrix is not
    identically zero.  The strict profile additionally requires nonnegative
    off-diagonal entries and diagonal dominance, the conditions under which
    the flow is positive and sup-norm contractive.
    """
    if profile not in ("basic", "strict"):
        raise ConfigurationError(f"unknown profile {profile!r}; choose basic or strict")
    M = matrix.entries
    n = M.shape[0]
    if n_vertices is not None and n != n_vertices:
        raise DimensionMismatch(f"vertex matrix is {n}x{n} but the graph has {n_vertices} vertices")

    scale = 1.0 + float(np.max(np.abs(M))) if M.size else 1.0
    tol_psd = 1e-10 * scale

    checks = []
    asym = float(np.max(np.abs(M - M.T))) if M.size else 0.0
    checks.append(Check("symmetric", asym == 0.0, asym, 0.0))

    lam_max = float(np.linalg.eigvalsh(0.5 * (M + M.T)).max())
    checks.append(Check("negative_semidefinite", lam_max <= tol_psd, lam_max, tol_psd))

    max_abs = float(np.max(np.abs(M)))
    nonzero = max_abs > 0.0
    checks.append(Check(
        "not_identically_zero", nonzero or matrix.zero_ok, max_abs, 0.0,
        note="" if nonzero else "zero matrix allowed by override; outside the structural assumptions",
    ))

    if profile == "strict":
        off = M - np.diag(np.diag(M))
        min_off = float(off.min()) if n > 1 else 0.0
        checks.append(Check("nonnegative_offdiagonal", min_off >= 0.0, min_off, 0.0))
        # worst row slack of sum_{k != i} b_ik <= -b_ii
        slack = float((np.diag(M) + off.sum(axis=1)).max())
        checks.append(Check("diagonally_dominant", slack <= tol_psd, slack, tol_psd))

    return ValidationReport(tuple(checks), context={"profile": profile, "n": n})
