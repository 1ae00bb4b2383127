"""Sparse assembly of the weak-form matrices on a meshed metric graph.

The discrete system couples, per edge, the weighted stiffness
``mu_j * int c_j u' v'`` and potential ``mu_j * int p_j u v`` terms, plus an
n x n vertex block carrying the negated coupling matrix.  The Kirchhoff flux
balance is not imposed strongly: it is the natural condition of the weak
form and is recovered under mesh refinement.

Sign conventions: with S the stiffness+potential matrix, K the scattered
``-M`` block and G the mass matrix, the semi-discrete flow reads
``G du/dt = A_form u`` with ``A_form = -(S + K)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools

from .errors import DimensionMismatch, FactorizationFailure, ValidationFailure
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
        return float(np.sqrt(state @ (self.mass @ state)))

    def einf_norm(self, state: np.ndarray) -> float:
        return float(np.abs(np.asarray(state)).max())

    def total_mass(self, state: np.ndarray) -> float:
        """The conserved functional sum_j mu_j * int u_j in the zero-row-sum case."""
        return float(np.ones(self.ndof) @ (self.mass @ np.asarray(state)))


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
