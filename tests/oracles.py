"""Reference implementations the fast paths of ``src/`` are checked against.

Each function here is the slow, obviously-correct form of something
production computes another way, kept only so that tests can compare the
two.  None of them runs in a scenario, a benchmark or an example, so none
lives in ``src/`` (``tests/test_census.py`` holds that rule):

* :func:`assemble_matrix` — ``Σ_e P_e^T K_e P_e`` by COO scatter and the
  sparse product ``P^T A_nodes P``, rebuilt per call: the reference of
  :meth:`repro.fem.plan.AssemblyPlan.assemble`;
* :func:`eliminate_dirichlet` / :func:`lift_dirichlet` (and
  :func:`apply_dirichlet`, the pair) — Dirichlet elimination on any CSR
  matrix: the references of :meth:`repro.fem.plan.AssemblyPlan.eliminate`
  and :meth:`repro.fem.plan.AssemblyPlan.lift`;
* :func:`elem_scatter` (with :func:`accumulate`, ``P.T @ a``) — the
  ``np.add.at`` load scatter behind
  :meth:`repro.fem.plan.AssemblyPlan.scatter_loads`;
* :func:`apply_elemental` — the serial matrix-free MATVEC that
  :meth:`repro.mesh.distributed.DistributedField.matvec` distributes;
* :func:`prolongation` — the mesh-to-mesh FE interpolation the GMG
  hierarchy (:func:`repro.la.gmg.hierarchy_for`) builds by index arithmetic;
* :func:`refine_recursive` / :func:`coarsen_recursive` — literal
  transcriptions of the paper's Algorithms 5 and 6 (arXiv:2209.12130,
  Sec. II-C), against the vectorized :func:`repro.octree.refine.refine` /
  :func:`repro.octree.coarsen.coarsen`;
* :func:`read_vtk_summary` — the header parser of the
  :func:`repro.io.vtk.write_vtk` round trip;
* :func:`coverage` — the covered fraction of the root cube, the
  completeness check of a tree.

Bodies are the ``src/`` code they replace, with a method's ``self`` as the
first argument.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.fem.basis import shape_functions
from repro.mesh.distributed import _elemental_pass as elemental_pass
from repro.mesh.mesh import Mesh
from repro.mesh.nodes import NodeTable
from repro.octree import morton
from repro.octree.tree import Octree

# ----------------------------------------------------------------- assembly


def assemble_matrix(mesh: Mesh, Ke: np.ndarray) -> sp.csr_matrix:
    """Assemble ``Σ_e P_e^T K_e P_e`` into a CSR matrix over DOFs.

    Reference path: rebuilds the COO pattern and re-runs the ``P^T A P``
    projection per call.  Hot loops use ``get_plan(mesh).assemble``.
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


def accumulate(nodes: NodeTable, node_accum: np.ndarray) -> np.ndarray:
    """Scatter-add nodal contributions back to DOFs: ``P.T @ a``."""
    return nodes.P.T @ node_accum


def elem_scatter(mesh: Mesh, contrib: np.ndarray) -> np.ndarray:
    """Accumulate per-element corner contributions into a DOF vector
    (GhostWrite with ADD_VALUES semantics): ``P.T`` applied to the nodal
    accumulation."""
    en = mesh.nodes.elem_nodes
    if contrib.ndim == 2:
        acc = np.zeros(mesh.n_nodes)
        np.add.at(acc, en.ravel(), contrib.ravel())
    else:
        k = contrib.shape[2]
        acc = np.zeros((mesh.n_nodes, k))
        np.add.at(acc, en.ravel(), contrib.reshape(-1, k))
    return accumulate(mesh.nodes, acc)


def apply_elemental(mesh: Mesh, Ke: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``v = A u`` with ``A = Σ_e P_e^T K_e P_e`` applied matrix-free.

    ``Ke`` is the batch of elemental matrices (n_elems, nc, nc).
    """
    nodes = mesh.nodes
    return accumulate(
        nodes, elemental_pass(Ke, nodes.elem_nodes, nodes.node_values(u))
    )


# ---------------------------------------------------------------- multigrid


def prolongation(coarse: Mesh, fine: Mesh) -> sp.csr_matrix:
    """FE interpolation matrix from coarse DOFs to fine DOFs.

    Each fine node evaluates the coarse multilinear field at its location —
    the same operation as the inter-grid transfer, materialized as a sparse
    operator so it can participate in Galerkin products.
    """
    pts = fine.nodes.coords[fine.nodes.node_of_dof]
    grid = np.clip(pts, 0, (1 << 19) - 1)
    elems = coarse.tree.locate_points(grid)
    a = coarse.tree.anchors[elems]
    s = coarse.tree.sizes()[elems].astype(np.float64)
    xi = np.clip((pts - a) / s[:, None], 0.0, 1.0)
    w = shape_functions(xi, coarse.dim)
    corner_dofs = coarse.nodes.elem_nodes[elems]  # uniform: nodes == dofs
    keep = (w > 1e-12).T  # entries corner-major
    rows = np.broadcast_to(np.arange(len(pts)), keep.shape)[keep]
    P = sp.csr_matrix(
        (w.T[keep], (rows, corner_dofs.T[keep])),
        shape=(fine.n_dofs, coarse.n_dofs),
    )
    P.sum_duplicates()
    return P


# ------------------------------------------------------------------- octree


def refine_recursive(tree: Octree, target_levels: np.ndarray) -> Octree:
    """Literal Algorithm 5: single-pass SFC traversal with an input cursor."""
    target_levels = np.asarray(target_levels, dtype=np.int64).reshape(-1)
    if np.any(target_levels < tree.levels):
        raise ValueError("refine cannot coarsen")
    out_a: list = []
    out_l: list = []
    cursor = [0]  # oct_in / level_in pointer, passed by reference

    anchors, levels, dim = tree.anchors, tree.levels, tree.dim

    def visit(r_anchor: np.ndarray, r_level: int) -> None:
        i = cursor[0]
        if i >= len(levels):
            return
        if not morton.overlaps(r_anchor, r_level, anchors[i], levels[i]):
            return
        if r_level < target_levels[i]:
            ca, cl = morton.children(r_anchor, np.int64(r_level), dim)
            for c in range(1 << dim):
                visit(ca[c], int(cl[c]))
        else:
            out_a.append(r_anchor)
            out_l.append(r_level)
        # Advance past every input octant equal to the current subtree root.
        while cursor[0] < len(levels) and (
            levels[cursor[0]] == r_level
            and np.array_equal(anchors[cursor[0]], r_anchor)
        ):
            cursor[0] += 1

    # Traverse from each input leaf's coarsest enclosing start; simplest
    # faithful choice is the root.
    visit(np.zeros(dim, dtype=np.int64), 0)
    if not out_a:
        return Octree.empty(dim)
    return Octree(np.stack(out_a), np.asarray(out_l), dim, presorted=True)


def coarsen_recursive(tree: Octree, votes: np.ndarray) -> Octree:
    """Literal Algorithm 6: post-order traversal, push/pop output stack.

    Returns the coarsened tree; used as an oracle against
    :func:`repro.octree.coarsen.coarsen`.
    """
    votes = np.asarray(votes, dtype=np.int64).reshape(-1)
    if np.any(votes > tree.levels):
        raise ValueError("votes must be at or coarser than current levels")
    anchors, levels, dim = tree.anchors, tree.levels, tree.dim
    out_a: list = []
    out_l: list = []
    cursor = [0]

    def visit(r_anchor: np.ndarray, r_level: int) -> int:
        """Returns coarsen_to: the finest vote among inputs in this subtree."""
        coarsen_to = 0
        i = cursor[0]
        if i >= len(levels) or not morton.overlaps(
            r_anchor, r_level, anchors[i], levels[i]
        ):
            return coarsen_to
        if r_level < levels[i]:
            pre_size = len(out_a)
            ca, _ = morton.children(r_anchor, np.int64(r_level), dim)
            for c in range(1 << dim):
                lc = visit(ca[c], r_level + 1)
                coarsen_to = max(coarsen_to, lc)
            if coarsen_to <= r_level:
                # Undo child emits and emit the subtree root instead.
                del out_a[pre_size:]
                del out_l[pre_size:]
                out_a.append(r_anchor)
                out_l.append(r_level)
        else:
            out_a.append(r_anchor)
            out_l.append(r_level)
            coarsen_to = int(votes[i])
        while cursor[0] < len(levels) and (
            levels[cursor[0]] == r_level
            and np.array_equal(anchors[cursor[0]], r_anchor)
        ):
            cursor[0] += 1
        return coarsen_to

    if len(levels) == 0:
        return Octree.empty(dim)
    visit(np.zeros(dim, dtype=np.int64), 0)
    return Octree(np.stack(out_a), np.asarray(out_l), dim, presorted=True)


def coverage(tree: Octree) -> float:
    """Total covered volume as a fraction of the root cube (below 1 for
    a partition chunk)."""
    total = float((1 << morton.MAX_DEPTH)) ** tree.dim
    return float(tree.volumes().sum()) / total


# ---------------------------------------------------------------------- io


def read_vtk_summary(path: str) -> dict:
    """Parse the structural header of a legacy VTK file (round-trip checks)."""
    out = {"points": 0, "cells": 0, "point_fields": [], "cell_fields": []}
    section = None
    with open(path) as fh:
        for line in fh:
            tok = line.split()
            if not tok:
                continue
            if tok[0] == "POINTS":
                out["points"] = int(tok[1])
            elif tok[0] == "CELLS":
                out["cells"] = int(tok[1])
            elif tok[0] == "POINT_DATA":
                section = "point"
            elif tok[0] == "CELL_DATA":
                section = "cell"
            elif tok[0] == "SCALARS":
                out[f"{section}_fields"].append(tok[1])
    return out
