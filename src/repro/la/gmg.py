"""Geometric multigrid for the variable-coefficient pressure Poisson solve.

The paper's future work: "scalable solvers, like Geometric multigrid (GMG),
promise to yield a better solve time" for the variable-density PP-solve —
it used plain iterative solvers after finding AMG setup too costly at scale.
This module implements the missing piece at laptop scale: a V-cycle on a
hierarchy of uniform grids with FE interpolation for prolongation, Galerkin
coarse operators (``A_c = P^T A_f P``), damped-Jacobi smoothing and a direct
coarsest solve.  It is exposed both as a standalone solver and as a
preconditioner for our CG — the ablation benchmark quantifies the iteration
savings the paper anticipated, and the PP solve uses it by default past the
measured crossover.

The hierarchy (:func:`hierarchy_for`) is sparse matrices only: the coarse
levels are uniform grids that exist as index arithmetic, never as ``Mesh``
objects.  :func:`prolongation` is the mesh-to-mesh form of the same
interpolation, kept as the public helper and the tests' oracle.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..mesh.mesh import Mesh
from ..octree import morton


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
    nc = 1 << coarse.dim
    rows, cols, vals = [], [], []
    corner_dofs = coarse.nodes.elem_nodes[elems]  # uniform: nodes == dofs
    for c in range(nc):
        w = np.ones(len(pts))
        for axis in range(coarse.dim):
            bit = (c >> axis) & 1
            w *= xi[:, axis] if bit else (1.0 - xi[:, axis])
        keep = w > 1e-12
        rows.append(np.nonzero(keep)[0])
        cols.append(corner_dofs[keep, c])
        vals.append(w[keep])
    P = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(fine.n_dofs, coarse.n_dofs),
    )
    P.sum_duplicates()
    return P


@dataclass
class _Level:
    A: sp.csr_matrix
    P: Optional[sp.csr_matrix]  # from the next coarser level (None on coarsest)
    R: Optional[sp.csr_matrix]  # its transpose, CSR
    inv_diag: np.ndarray


def _interp_1d(level: int) -> sp.csr_matrix:
    """1D linear interpolation from the ``2**(level-1) + 1`` grid points of
    ``level - 1`` to the ``2**level + 1`` points of ``level``."""
    cells = 1 << (level - 1)
    j = np.arange(cells)
    even = np.arange(cells + 1)
    rows = np.concatenate([2 * even, 2 * j + 1, 2 * j + 1])
    cols = np.concatenate([even, j, j + 1])
    vals = np.concatenate([np.ones(cells + 1), np.full(2 * cells, 0.5)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(2 * cells + 1, cells + 1))


def _uniform_prolongation(dim: int, level: int) -> sp.csr_matrix:
    """Multilinear interpolation between the uniform grids of ``level - 1``
    and ``level``, both numbered lexicographically (x fastest): the
    Kronecker product of the 1D interpolation with itself."""
    P1 = _interp_1d(level)
    P = P1
    for _ in range(dim - 1):
        P = sp.kron(P1, P, format="csr")
    return P


def _mesh_prolongation(mesh: Mesh, level: int) -> sp.csr_matrix:
    """Multilinear interpolation from the lexicographically numbered uniform
    grid of ``level`` to the DOFs of ``mesh`` (adaptive or not, no octant
    finer than ``level + 1``), by integer arithmetic on the DOF coordinates:
    what :func:`prolongation` computes, without a coarse ``Mesh`` to search."""
    dim = mesh.dim
    shift = morton.MAX_DEPTH - level
    n = (1 << level) + 1
    xyz = mesh.nodes.coords[mesh.nodes.node_of_dof]
    cell = np.minimum(xyz >> shift, n - 2)
    xi = (xyz - (cell << shift)) / float(1 << shift)
    dofs = np.arange(mesh.n_dofs)
    rows, cols, vals = [], [], []
    for corner in range(1 << dim):
        w = np.ones(mesh.n_dofs)
        col = np.zeros(mesh.n_dofs, dtype=np.int64)
        for axis in range(dim):
            bit = (corner >> axis) & 1
            w *= xi[:, axis] if bit else 1.0 - xi[:, axis]
            col += (cell[:, axis] + bit) * n**axis
        keep = w > 0.0
        rows.append(dofs[keep])
        cols.append(col[keep])
        vals.append(w[keep])
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_dofs, n**dim),
    )


def _prune_columns(P: sp.csr_matrix):
    """``P`` without the columns no row interpolates from, and the indices
    of the columns kept."""
    used = np.unique(P.indices)
    renumber = np.empty(P.shape[1], dtype=P.indices.dtype)
    renumber[used] = np.arange(len(used), dtype=P.indices.dtype)
    pruned = sp.csr_matrix(
        (P.data, renumber[P.indices], P.indptr), shape=(P.shape[0], len(used))
    )
    return pruned, used


#: Per-mesh-generation hierarchy cache: the prolongation chain depends only
#: on the fine mesh topology, not on the operator, so per-timestep
#: preconditioner rebuilds (the density field moves every step) pay only
#: for the Galerkin products.  Entries hold sparse matrices and nothing else
#: (a cached hierarchy must not keep a retired mesh alive) and are dropped
#: when their mesh is collected, so the cache is never larger than the set
#: of live meshes that asked for a hierarchy.
_HIER_CACHE: "dict[tuple, list]" = {}


def hierarchy_for(fine_mesh: Mesh, coarsest_level: int) -> list:
    """The prolongation chain below ``fine_mesh`` as ``[(P, R), ...]``,
    finest first: ``P`` interpolates level ``i + 1`` to level ``i`` and
    ``R = P.T``, both CSR.  Level 0 is the DOFs of ``fine_mesh``; the levels
    below are the uniform grids from one tree level under its finest octant
    down to ``coarsest_level``, each restricted to the grid points the level
    above interpolates from.  A point nothing interpolates from has a zero
    row and column in every Galerkin product and a zero restricted residual,
    so it never leaves zero in a V-cycle: dropping it changes no iterate,
    and keeps every level no larger than the one above on a locally refined
    mesh.  Cached per ``Mesh.generation`` for the life of the mesh (AMR
    remeshes invalidate by building a new Mesh)."""
    key = (fine_mesh.generation, int(coarsest_level))
    hit = _HIER_CACHE.get(key)
    if hit is not None:
        return hit
    finest = int(fine_mesh.tree.levels.max())
    if coarsest_level >= finest:
        raise ValueError("coarsest_level must be below the fine level")
    chain, kept = [], None  # kept: the points of the level above still in use
    for level in range(finest - 1, coarsest_level - 1, -1):
        if kept is None:
            P = _mesh_prolongation(fine_mesh, level)
        else:
            P = _uniform_prolongation(fine_mesh.dim, level + 1)[kept]
        P, kept = _prune_columns(P)
        chain.append((P, P.T.tocsr()))
    _HIER_CACHE[key] = chain
    weakref.finalize(fine_mesh, _HIER_CACHE.pop, key, None)
    return chain


def clear_hierarchy_cache() -> None:
    _HIER_CACHE.clear()


class GeometricMultigrid:
    """V-cycle hierarchy over uniform refinement levels.

    ``assemble``: callback building the fine operator on a given Mesh; coarse
    operators are Galerkin products, so variable coefficients are inherited
    exactly.  Usable directly (``solve``) or as a preconditioner (callable).

    The fine mesh may be adaptive: the hierarchy below it is built from
    *uniform* grids starting one level below the finest octant
    (:func:`hierarchy_for`), and the geometric FE interpolation handles the
    nonconforming transfer (every fine DOF evaluates the coarse multilinear
    field at its location, wherever it sits).
    """

    def __init__(
        self,
        fine_mesh: Mesh,
        A_fine: sp.csr_matrix,
        *,
        coarsest_level: int = 2,
        omega: float = 2.0 / 3.0,
        pre_smooth: int = 2,
        post_smooth: int = 2,
    ):
        self.omega = omega
        self.pre = pre_smooth
        self.post = post_smooth

        self.levels: list[_Level] = []
        A = A_fine.tocsr()
        for P, R in [*hierarchy_for(fine_mesh, coarsest_level), (None, None)]:
            d = A.diagonal()
            d = np.where(np.abs(d) > 1e-300, d, 1.0)
            self.levels.append(_Level(A=A, P=P, R=R, inv_diag=1.0 / d))
            if P is not None:
                A = R @ A @ P
        self._coarse_lu = spla.splu(self.levels[-1].A.tocsc() + 1e-12 * sp.eye(
            self.levels[-1].A.shape[0], format="csc"
        ))

    def _smooth(self, lvl: _Level, x: np.ndarray, b: np.ndarray, n: int):
        for _ in range(n):
            x = x + self.omega * lvl.inv_diag * (b - lvl.A @ x)
        return x

    def v_cycle(self, b: np.ndarray, level: int = 0) -> np.ndarray:
        lvl = self.levels[level]
        if level == len(self.levels) - 1:
            return self._coarse_lu.solve(b)
        x = self._smooth(lvl, np.zeros_like(b), b, self.pre)
        r = b - lvl.A @ x
        rc = lvl.R @ r
        ec = self.v_cycle(rc, level + 1)
        x = x + lvl.P @ ec
        return self._smooth(lvl, x, b, self.post)

    # Preconditioner protocol.
    def matvec(self, r: np.ndarray) -> np.ndarray:
        return self.v_cycle(r)

    __call__ = matvec

    def solve(
        self, b: np.ndarray, *, tol: float = 1e-10, maxiter: int = 50
    ):
        """Stationary V-cycle iteration (no Krylov wrapper)."""
        x = np.zeros_like(b)
        bnorm = float(np.linalg.norm(b)) or 1.0
        for it in range(1, maxiter + 1):
            r = b - self.levels[0].A @ x
            res = float(np.linalg.norm(r)) / bnorm
            if res < tol:
                return x, it - 1, res
            x = x + self.v_cycle(r)
        r = b - self.levels[0].A @ x
        return x, maxiter, float(np.linalg.norm(r)) / bnorm
