"""Global assembly of elemental operators — the documented *reference* path.

Assembly goes node-wise first (a plain COO scatter of the batched elemental
matrices) and is then projected through the hanging-node interpolation:
``A = P^T A_nodes P``.  This reproduces the paper's structure where the
elemental loop never special-cases hanging nodes — interpolation is folded
into the gather/scatter operators.

:func:`assemble_matrix` redoes the full symbolic work (COO construction,
sparse matmuls, duplicate summation) on every call.  The solver hot path
goes through :mod:`repro.fem.plan` instead, which precomputes all of that
once per mesh; this module stays as the slow, obviously-correct
reference the plan is validated against (``tests/fem/test_assembly_plan.py``
cross-checks them at 1e-14).  :func:`eliminate_dirichlet` and
:func:`lift_dirichlet` are the references of
:meth:`repro.fem.plan.AssemblyPlan.eliminate` and
:meth:`repro.fem.plan.AssemblyPlan.lift`, through which the NS and VU blocks
eliminate and lift (``tests/fem/test_apply_dirichlet.py``).
:func:`assemble_vector` is the one fast-path function here."""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..mesh.mesh import Mesh
from .plan import get_plan


def assemble_matrix(mesh: Mesh, Ke: np.ndarray) -> sp.csr_matrix:
    """Assemble ``Σ_e P_e^T K_e P_e`` into a CSR matrix over DOFs.

    Reference path: rebuilds the COO pattern and re-runs the ``P^T A P``
    projection per call.  Hot loops use :func:`repro.fem.plan.plan_assemble`.
    """
    en = mesh.nodes.elem_nodes  # (n_elems, nc)
    n_elems, nc = en.shape
    rows = np.repeat(en, nc, axis=1).ravel()
    cols = np.tile(en, (1, nc)).ravel()
    # COO -> CSR conversion already sums duplicate entries, and the sparse
    # matmul product is duplicate-free by construction.
    A_nodes = sp.coo_matrix(
        (Ke.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)
    ).tocsr()
    P = mesh.nodes.P
    return (P.T @ A_nodes @ P).tocsr()


def assemble_vector(mesh: Mesh, be: np.ndarray) -> np.ndarray:
    """Assemble elemental load vectors (n_elems, nc[, k]) into DOF vector(s)
    (n_dofs[, k]) through the mesh's planned scatter;
    :meth:`repro.mesh.mesh.Mesh.elem_scatter` is its reference."""
    return get_plan(mesh).scatter_loads(be)


def lift_dirichlet(
    A: sp.csr_matrix,
    b: np.ndarray,
    mask: np.ndarray,
    values: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The right-hand side of :func:`apply_dirichlet` alone: interior
    equations see the boundary data (``b - A g``), constrained rows hold it.
    ``A`` is the operator *before* elimination, so a constant matrix can be
    eliminated once and only its right-hand sides lifted per solve."""
    mask = np.asarray(mask, dtype=bool)
    vals = np.zeros(A.shape[0]) if values is None else np.asarray(values)
    g = np.zeros(A.shape[0])
    g[mask] = vals[mask] if vals.shape == g.shape else vals
    b_bc = b - A @ g
    b_bc[mask] = g[mask]
    return b_bc


def eliminate_dirichlet(A: sp.csr_matrix, mask: np.ndarray) -> sp.csr_matrix:
    """The matrix of :func:`apply_dirichlet` alone: constrained rows and
    columns of ``A`` replaced by identity.  One O(nnz) pass over ``A.data``
    (entries in a constrained row or column zeroed, unit diagonal on
    constrained rows, zeros dropped); the result shares no array with
    ``A``, which is left untouched."""
    mask = np.asarray(mask, dtype=bool)
    A = A.tocsr()
    if not A.has_canonical_format:  # a repeated diagonal entry would sum to 2
        A = A.copy()
        A.sum_duplicates()
    # plan-assembled operands may carry arrays longer than their nnz
    nnz = int(A.indptr[-1])
    cols = A.indices[:nnz]
    per_row = np.diff(A.indptr)
    rows = np.repeat(np.arange(A.shape[0], dtype=cols.dtype), per_row)
    in_row = np.repeat(mask, per_row)  # the entry sits in a constrained row
    data = np.where(in_row | np.take(mask, cols), 0.0, A.data[:nnz])
    on_diag = in_row & (rows == cols)
    data[on_diag] = 1.0
    # eliminate_zeros compacts indices/indptr in place: they must be copies
    A_bc = sp.csr_matrix((data, cols.copy(), A.indptr.copy()), shape=A.shape)
    A_bc.eliminate_zeros()
    if np.count_nonzero(on_diag) != np.count_nonzero(mask):
        # a constrained row with no stored diagonal entry to overwrite
        missing = mask.copy()
        missing[rows[on_diag]] = False
        A_bc = (A_bc + sp.diags(missing.astype(np.float64))).tocsr()
    return A_bc


def apply_dirichlet(
    A: sp.csr_matrix,
    b: np.ndarray,
    mask: np.ndarray,
    values: Optional[np.ndarray] = None,
):
    """Impose Dirichlet conditions by row/column elimination.

    Returns ``(A_bc, b_bc)``; the constrained rows become identity
    (:func:`eliminate_dirichlet`) and the RHS is lifted so interior
    equations see the boundary data (:func:`lift_dirichlet`).
    """
    return eliminate_dirichlet(A, mask), lift_dirichlet(A, b, mask, values)

