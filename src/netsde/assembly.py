"""Sparse assembly of the weak-form matrices on a meshed metric graph.

The discrete system couples, per edge, the weighted stiffness
``mu_j * int c_j u' v'`` and potential ``mu_j * int p_j u v`` terms, plus an
n x n vertex block carrying the negated coupling matrix.  The Kirchhoff flux
balance is not imposed strongly: it is the natural condition of the weak
form and is recovered under mesh refinement.

Sign conventions: with S the stiffness+potential matrix, K the scattered
``-M`` block and G the mass matrix, the semi-discrete flow reads
``G du/dt = A_form u`` with ``A_form = -(S + K)``.

The module also holds the linear algebra built on these matrices: the
compiled CSR products (``bind_matvec``), the white-noise factor of G, and
the solver of a step matrix ``G - dt*A_form`` (``arrowhead_solver``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse import _sparsetools

from .errors import (ConfigurationError, DimensionMismatch, FactorizationFailure,
                     LinearSolveFailure, ValidationFailure)
from .fields import EdgeFieldSet
from .graph import VertexMatrix, validate_vertex_matrix
from .mesh import GAUSS_XI, Mesh


@dataclass(frozen=True)
class DiscreteSystem:
    """Assembled matrices of the weak form on a fixed mesh."""

    mesh: Mesh
    fields: EdgeFieldSet
    vertex_matrix: VertexMatrix
    mass: sp.csr_matrix                 # G, symmetric positive definite
    stiffness_potential: sp.csr_matrix  # S
    vertex_coupling: sp.csr_matrix      # K = -M scattered onto vertex dofs
    form_matrix: sp.csr_matrix          # A_form = -(S + K)
    lumped_mass: np.ndarray             # row sums of G

    @property
    def ndof(self) -> int:
        return self.mesh.ndof

    def e2_norm(self, state: np.ndarray) -> float:
        """Weighted L2 norm computed exactly through the mass matrix."""
        state = np.asarray(state, dtype=float)
        return float(np.sqrt(np.sum(state * (self.mass @ state))))

    def einf_norm(self, state: np.ndarray) -> float:
        return float(np.abs(np.asarray(state)).max())

    def total_mass(self, state: np.ndarray) -> float:
        """The conserved functional sum_j mu_j * int u_j in the zero-row-sum case."""
        return float(np.sum(self.mass @ np.asarray(state)))


def assemble_form(mesh: Mesh, fields: EdgeFieldSet, matrix: VertexMatrix) -> DiscreteSystem:
    """Assemble mass, stiffness+potential and vertex coupling matrices.

    Element integrals of the variable coefficients use 2-point Gauss
    quadrature (exact for constant coefficients).  The vertex matrix must
    pass basic validation; coefficient signs are re-checked at the
    quadrature points.
    """
    n, m = mesh.graph.n_vertices, mesh.n_edges
    report = validate_vertex_matrix(matrix, "basic", n_vertices=n)
    if not report.passed:
        raise ValidationFailure(
            f"vertex matrix failed basic validation: {report.failed_names()}", report)
    if fields.n_edges != m:
        raise DimensionMismatch(f"fields describe {fields.n_edges} edges, mesh has {m}")

    h = mesh.h
    n_elem = mesh.n_interior + 1
    # local coordinates of the two Gauss points in every element of one edge
    elem_left = h * np.arange(n_elem)
    gauss_x = elem_left[:, None] + h * GAUSS_XI[None, :]
    phi_left = 1.0 - GAUSS_XI
    phi_right = GAUSS_XI
    # (edges, elements, Gauss points) samples
    c_vals, p_vals = fields.checked_samples(gauss_x, " at a quadrature point")

    # element terms as (edges, elements) arrays
    half_mu = fields.weights[:, None] * 0.5
    scale = half_mu * h
    stiff = half_mu * c_vals.sum(axis=2) / h          # mu * int_elem c * (1/h)^2
    pot_ll = scale * (p_vals * phi_left ** 2).sum(axis=2)
    pot_lr = scale * (p_vals * phi_left * phi_right).sum(axis=2)
    pot_rr = scale * (p_vals * phi_right ** 2).sum(axis=2)
    mass_ll = scale * np.full(n_elem, (phi_left ** 2).sum())
    mass_lr = scale * np.full(n_elem, (phi_left * phi_right).sum())
    mass_rr = scale * np.full(n_elem, (phi_right ** 2).sum())

    # COO entries edge by edge, (ll, rr, lr, rl) blocks within an edge: the
    # CSR conversion sums the entries at a shared vertex dof in this order
    ndof = mesh.ndof
    left, right = mesh.edge_dofs[:, :-1], mesh.edge_dofs[:, 1:]
    rows = np.stack([left, right, left, right], axis=1).ravel()
    cols = np.stack([left, right, right, left], axis=1).ravel()

    def coo_to_csr(ll, rr, lr, rl):
        vals = np.stack([ll, rr, lr, rl], axis=1).ravel()
        return sp.coo_matrix((vals, (rows, cols)), shape=(ndof, ndof)).tocsr()

    G = coo_to_csr(mass_ll, mass_rr, mass_lr, mass_lr)
    S = coo_to_csr(stiff + pot_ll, stiff + pot_rr, -stiff + pot_lr, -stiff + pot_lr)

    vi, vk = np.meshgrid(mesh.vertex_dofs, mesh.vertex_dofs, indexing="ij")
    K = sp.coo_matrix(
        (-matrix.entries.ravel(), (vi.ravel(), vk.ravel())), shape=(ndof, ndof)).tocsr()
    K.eliminate_zeros()

    A_form = (-(S + K)).tocsr()
    lumped = np.asarray(G.sum(axis=1)).ravel()
    return DiscreteSystem(mesh, fields, matrix, G, S, K, A_form, lumped)


def bind_matvec(matrix):
    """``x -> matrix @ x`` for a float64 sparse matrix, through SciPy's
    compiled CSR kernels, bound once.

    ``A @ x`` on a sparse matrix ends in ``csr_matvec`` (1-D ``x``) or
    ``csr_matvecs`` (2-D ``x``); on systems of a few hundred dofs the Python
    dispatch above them costs more than the kernel.  The returned function
    calls the kernel directly on the matrix's canonical CSR arrays (sorted
    column indices, no duplicates), so every row sums its entries in
    ascending column order and the result equals ``A @ x`` bit for bit, for
    a canonical CSR ``A`` and for its CSC form alike.  ``out``, when given,
    receives the product (the kernels add into it, so it is zeroed first)
    and must be a float64 array shaped like the product.  This is the one
    place that reaches into SciPy's private ``_sparsetools``.
    """
    A = matrix.tocsr()
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    n_rows, n_cols = A.shape
    indptr, indices, data = A.indptr, A.indices, A.data

    def matvec(x, out=None):
        # the kernels read x and write out unchecked: sizes are checked here
        if x.shape[0] != n_cols:
            raise DimensionMismatch(f"matrix has {n_cols} columns, vector has {x.shape[0]} rows")
        shape = (n_rows,) + x.shape[1:]
        if out is None:
            out = np.zeros(shape)
        elif out.shape != shape:
            raise DimensionMismatch(f"product has shape {shape}, out has {out.shape}")
        else:
            out.fill(0.0)
        if x.ndim == 1:
            _sparsetools.csr_matvec(n_rows, n_cols, indptr, indices, data, x, out)
        elif x.ndim == 2 and out.flags.c_contiguous:
            _sparsetools.csr_matvecs(n_rows, n_cols, x.shape[1], indptr, indices, data,
                                     np.ascontiguousarray(x).ravel(), out.ravel())
        else:
            raise ValueError("need a 1-D or 2-D vector and a C-contiguous out")
        return out

    return matvec


# the most vertices whose Schur complement ``arrowhead_solver`` inverts densely,
# the step solve's counterpart of semigroup.DENSE_LIMIT.  On wheel graphs with 9
# interior nodes per edge (2-core Xeon), 256 vertices take 0.07 s of set-up and
# 0.30 ms per solve, against SuperLU's 0.22 ms; 512 take 0.53 s and 1.1 ms,
# against 0.40 ms, as the dense n x n vertex matvec outgrows a sparse factor.
VERTEX_LIMIT = 256


def arrowhead_solver(matrix, mesh: Mesh):
    """``b -> matrix^{-1} b`` for a step matrix ``G - dt*A_form`` on ``mesh``,
    by block elimination (Golub & Van Loan, Matrix Computations, ch. 4).

    The interior-first dof layout makes the matrix an arrowhead: its interior
    block T is symmetric tridiagonal with zero couplings between edges, and
    an edge meets the vertex block D only through its first and last interior
    nodes, in ``C = matrix[interior, vertex]`` and ``R = matrix[vertex,
    interior]``; entries outside this pattern are not read.  Set-up factors T
    with LAPACK's ``dpttrf``, solves ``W = T^{-1} C`` (two entries per row)
    and inverts the n x n Schur complement ``D - R W`` by Gauss-Jordan
    elimination in numpy elementwise operations.
    A solve takes ``y = T^{-1} b_int`` with ``dpttrs``, then the vertex values
    ``x_v = S^{-1} (b_v - R y)`` and the interior ``y - W x_v``, each one
    compiled CSR matvec.  Reference ``dpttrs`` runs plain loops, so neither
    set-up nor a solve calls BLAS and the bytes do not depend on the OpenBLAS
    core; each column of an (ndof, B) right-hand side goes through a single
    solve's arithmetic, so it equals that solve bit for bit.

    A solve overwrites ``b``.  Raises ConfigurationError above VERTEX_LIMIT
    vertices, before anything n x n is formed, and LinearSolveFailure when T
    is not positive definite or the Schur complement is singular.
    """
    n = mesh.graph.n_vertices
    if n > VERTEX_LIMIT:
        raise ConfigurationError(
            f"the step solve inverts an n x n vertex block densely; it is limited to "
            f"VERTEX_LIMIT = {VERTEX_LIMIT} vertices, the graph has {n}")
    A = sp.csr_matrix(matrix)
    n_int = mesh.ndof - n
    # SciPy's wrapper wants at least one off-diagonal entry, also for one node
    off = np.zeros(max(n_int - 1, 1))
    off[:n_int - 1] = A.diagonal(1)[:n_int - 1]
    diag, off, info = dpttrf(A.diagonal()[:n_int], off)
    if info != 0:
        raise LinearSolveFailure(f"the interior block of the step matrix is not positive "
                                 f"definite (dpttrf info {info})")
    # edge j's first interior node inner[j] couples to its left end outer[j] (a
    # vertex index), its last, inner[m + j], to its right end outer[m + j]
    m = mesh.n_edges
    ends = mesh.edge_dofs[:, [0, -1]] - n_int
    inner, outer = mesh.edge_dofs[:, [1, -2]].T.ravel(), ends.T.ravel()
    to_vertex = A[n_int + outer, inner].A1      # the entries of R
    from_vertex = A[inner, n_int + outer].A1    # the entries of C
    coupling = np.zeros((n_int, 2))
    coupling[inner[:m], 0], coupling[inner[m:], 1] = from_vertex[:m], from_vertex[m:]
    W = dpttrs(diag, off, coupling)[0]  # row i: T^-1 C in its edge's two end columns
    # S = D - R W: vertex outer[k] loses to_vertex[k] times row inner[k] of W
    schur = A[n_int:, n_int:].toarray()
    np.subtract.at(schur, (outer[:, None], np.tile(ends, (2, 1))), to_vertex[:, None] * W[inner])
    inverse = _gauss_jordan_inverse(schur)
    # x_v = S^-1 (b_v - R y): column inner[k] of S^-1 R is column outer[k] of
    # S^-1 times to_vertex[k] (two such columns meet when an edge has one node)
    columns = np.concatenate([inner, n_int + np.arange(n)])
    block = np.hstack([-inverse[:, outer] * to_vertex, inverse])
    vertex = bind_matvec(sp.csr_matrix(
        (block.ravel(), (np.arange(n).repeat(columns.size), np.tile(columns, n))),
        shape=(n, mesh.ndof)))
    # [y; x_v] -> [y - W x_v; x_v]: the identity, less W in the interior rows
    dofs = np.arange(mesh.ndof)
    back = bind_matvec(sp.csr_matrix(
        (np.concatenate([np.ones(mesh.ndof), -W.ravel()]),
         (np.concatenate([dofs, dofs[:n_int].repeat(2)]),
          np.concatenate([dofs, n_int + ends.repeat(mesh.n_interior, axis=0).ravel()]))),
        shape=(mesh.ndof, mesh.ndof)))

    def solve(b):
        head = b[:n_int]
        y = dpttrs(diag, off, head, overwrite_b=True)[0]
        if y is not head:  # f2py solved a copy: a C-ordered block is not Fortran-ordered
            head[...] = y
        b[n_int:] = vertex(b)
        return back(b)

    return solve


def _gauss_jordan_inverse(matrix: np.ndarray) -> np.ndarray:
    """The inverse of a square matrix by Gauss-Jordan elimination with partial
    pivoting, in numpy elementwise operations only (no BLAS or LAPACK call)."""
    n = len(matrix)
    work = np.hstack([matrix, np.eye(n)])
    for k in range(n):
        p = k + int(np.argmax(np.abs(work[k:, k])))
        pivot = work[p, k]
        if not (pivot != 0.0 and np.isfinite(pivot)):
            raise LinearSolveFailure(f"the vertex Schur complement of the step matrix is "
                                     f"singular (pivot {pivot} in column {k})")
        work[[k, p]] = work[[p, k]]
        work[k] /= pivot
        column = work[:, k].copy()
        column[k] = 0.0
        work -= np.multiply.outer(column, work[k])
    return work[:, n:]


def noise_covariance_factor(system: DiscreteSystem, lumped: bool = False) -> sp.csc_matrix:
    """Lower-triangular factor L with L L^T equal to the mass matrix.

    Gaussian increments ``sqrt(dt) * L z`` then have covariance ``dt * G``,
    the coordinate form of space-time white noise tested against the nodal
    basis.  With ``lumped=True`` the factor is the diagonal square root of
    the row-sum lumped mass.

    G is factored sparsely in the mesh's dof order: SuperLU in symmetric
    mode (which skips its column elimination-tree postorder) without column
    reordering or row pivoting gives ``G = L_1 U`` with unit ``L_1`` and,
    G being symmetric, ``U = D L_1^T``, so ``L = L_1 sqrt(D)`` is the
    Cholesky factor.  The interior-first dof layout is an arrowhead
    ordering, so L fills in only the trailing vertex rows and both time and
    memory are linear in the dof count for a fixed graph.
    """
    if lumped:
        return sp.diags(np.sqrt(system.lumped_mass)).tocsc()
    natural = np.arange(system.ndof)
    try:
        lu = spla.splu(system.mass.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError as err:  # SuperLU: factor is exactly singular
        raise FactorizationFailure(f"mass matrix is singular: {err}") from err
    pivots = lu.U.diagonal()
    if not (np.array_equal(lu.perm_r, natural) and np.array_equal(lu.perm_c, natural)
            and np.all(pivots > 0.0)):
        raise FactorizationFailure("mass matrix is not positive definite")
    factor = sp.csc_matrix(lu.L @ sp.diags(np.sqrt(pivots)))
    factor.eliminate_zeros()
    factor.sort_indices()
    return factor


def dump_matrices(system: DiscreteSystem, directory) -> list[str]:
    """Write mass/form matrices in Matrix Market coordinate format."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, matrix in (
        ("mass", system.mass),
        ("stiffness_potential", system.stiffness_potential),
        ("vertex_coupling", system.vertex_coupling),
        ("form", system.form_matrix),
    ):
        path = directory / f"{name}.mtx"
        scipy.io.mmwrite(path, sp.coo_matrix(matrix))
        written.append(str(path))
    return written
