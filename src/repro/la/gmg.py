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

The hierarchy (:func:`hierarchy_for`) is sparse matrices only, kept in the
fine mesh's ``memo``: the coarse levels are uniform grids that exist as
index arithmetic, never as ``Mesh`` objects.  The mesh-to-mesh form of the
same interpolation, ``prolongation`` in ``tests/oracles.py``, is the tests'
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..fem.basis import shape_functions
from ..mesh.mesh import Mesh
from ..octree import morton

#: Weighted-Jacobi smoother: damping, and sweeps before and after each
#: coarse-grid correction.
OMEGA = 2.0 / 3.0
SMOOTH_STEPS = 2


@dataclass
class _Level:
    A: sp.csr_matrix
    damped_inv_diag: np.ndarray  # OMEGA / diag(A)
    # work vectors: the level's iterate, a mat-vec / residual temporary and
    # the right-hand side the level above restricts to it
    x: np.ndarray
    t: np.ndarray
    b: np.ndarray
    # ``(v, out)`` writing ``A v`` / ``P v`` / ``R v`` into ``out``; ``P``
    # interpolates from the next coarser level, ``R = P.T`` (None on the
    # coarsest level)
    apply_A: Callable
    apply_P: Optional[Callable]
    apply_R: Optional[Callable]


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
    what the mesh-to-mesh ``prolongation`` of ``tests/oracles.py`` computes,
    without a coarse ``Mesh`` to search."""
    dim = mesh.dim
    shift = morton.MAX_DEPTH - level
    n = (1 << level) + 1
    xyz = mesh.nodes.coords[mesh.nodes.node_of_dof]
    cell = np.minimum(xyz >> shift, n - 2)
    xi = (xyz - (cell << shift)) / float(1 << shift)
    w = shape_functions(xi, dim)
    # lexicographic index of each corner's grid point, x fastest: the
    # cell's own plus the corner's offset
    stride = n ** np.arange(dim)
    col = (cell @ stride)[:, None] + morton.corner_bits(dim) @ stride
    keep = (w > 0.0).T  # corner-major
    rows = np.broadcast_to(np.arange(mesh.n_dofs), keep.shape)[keep]
    return sp.csr_matrix(
        (w.T[keep], (rows, col.T[keep])), shape=(mesh.n_dofs, n**dim)
    )


def _prune_columns(P: sp.csr_matrix):
    """``P`` without the columns no row interpolates from, and the indices
    of the columns kept."""
    # ``np.unique`` would give the same sorted columns, but NumPy 2.4 takes
    # a hash path for it that is 10-40x slower than this count (DESIGN.md
    # section 12)
    used = np.flatnonzero(np.bincount(P.indices, minlength=P.shape[1]))
    renumber = np.empty(P.shape[1], dtype=P.indices.dtype)
    renumber[used] = np.arange(len(used), dtype=P.indices.dtype)
    pruned = sp.csr_matrix(
        (P.data, renumber[P.indices], P.indptr), shape=(P.shape[0], len(used))
    )
    return pruned, used


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
    mesh.  The chain depends on the mesh alone, not on the operator, so it
    is kept in ``fine_mesh.memo`` and dies with the mesh: per-step
    preconditioner rebuilds pay only for the Galerkin products."""
    key = ("gmg", int(coarsest_level))
    hit = fine_mesh.memo.get(key)
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
            P = _uniform_prolongation(fine_mesh.dim, level + 1)
            if len(kept) == P.shape[0]:
                # the whole grid is in use: every coarse point k is fine
                # point 2k's one parent, so every column is used and
                # neither the row slice nor pruning would change anything
                chain.append((P, P.T.tocsr()))
                kept = np.arange(P.shape[1])
                continue
            P = P[kept]
        P, kept = _prune_columns(P)
        chain.append((P, P.T.tocsr()))
    fine_mesh.memo[key] = chain
    return chain


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

    A cycle allocates nothing but its result: each level keeps its damped
    inverse diagonal and three work vectors, and every mat-vec runs the
    compiled CSR kernel into one of them (:func:`repro.la.krylov.
    _apply_into`).  Each update keeps the operation order of the textbook
    cycle (``x + (OMEGA / diag) (b - A x)``), so the cycles are bit for bit
    those of the allocating form.  The work vectors make an instance
    serve one solve at a time.
    """

    def __init__(
        self,
        fine_mesh: Mesh,
        A_fine: sp.csr_matrix,
        *,
        coarsest_level: int = 2,
    ):
        # krylov imports precond, which imports this module
        from .krylov import _apply_into

        self.levels: list[_Level] = []
        A = A_fine.tocsr()
        for P, R in [*hierarchy_for(fine_mesh, coarsest_level), (None, None)]:
            d = A.diagonal()
            d = np.where(np.abs(d) > 1e-300, d, 1.0)
            n = A.shape[0]
            apply_P, apply_R = (
                (None, None) if P is None
                else (_apply_into(P, np.float64), _apply_into(R, np.float64))
            )
            self.levels.append(_Level(
                A=A, damped_inv_diag=OMEGA * (1.0 / d),
                x=np.empty(n), t=np.empty(n), b=np.empty(n),
                apply_A=_apply_into(A, np.float64),
                apply_P=apply_P, apply_R=apply_R,
            ))
            if P is not None:
                A = R @ A @ P
        self._coarse_lu = spla.splu(self.levels[-1].A.tocsc() + 1e-12 * sp.eye(
            self.levels[-1].A.shape[0], format="csc"
        ))

    @staticmethod
    def _smooth(lvl: _Level, b: np.ndarray, n: int, *, from_zero: bool):
        """``n`` damped-Jacobi sweeps on ``lvl.x``.  From ``x = 0`` the first
        sweep skips its mat-vec: for a finite ``A``, ``A @ 0`` is +0.0 in
        every entry, and ``b - 0.0`` is ``b``."""
        x, t = lvl.x, lvl.t
        if from_zero:
            x.fill(0.0)
        for sweep in range(n):
            if from_zero and sweep == 0:
                np.multiply(lvl.damped_inv_diag, b, out=t)
            else:
                lvl.apply_A(x, t)
                np.subtract(b, t, out=t)
                t *= lvl.damped_inv_diag
            x += t

    def _cycle(self, b: np.ndarray, level: int) -> np.ndarray:
        """The V-cycle's correction for ``b`` from ``level`` down, in that
        level's ``x`` (a fresh array on the coarsest level)."""
        if level == len(self.levels) - 1:
            return self._coarse_lu.solve(b)
        lvl, coarse = self.levels[level], self.levels[level + 1]
        self._smooth(lvl, b, SMOOTH_STEPS, from_zero=True)
        lvl.apply_A(lvl.x, lvl.t)
        np.subtract(b, lvl.t, out=lvl.t)  # r = b - A x
        lvl.apply_R(lvl.t, coarse.b)
        ec = self._cycle(coarse.b, level + 1)
        lvl.apply_P(ec, lvl.t)
        lvl.x += lvl.t
        self._smooth(lvl, b, SMOOTH_STEPS, from_zero=False)
        return lvl.x

    def v_cycle(self, b: np.ndarray, level: int = 0) -> np.ndarray:
        """One V-cycle on ``b`` from ``level`` down, as a fresh array."""
        return self._cycle(b, level).copy()

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
