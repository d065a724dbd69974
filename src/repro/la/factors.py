"""Held sparse LU factors as the preconditioner of later block solves.

Every block of the CHNS step solves a sequence of linear systems whose
matrices drift slowly: from Newton iterate to iterate in the CH block, from
step to step in NS and PP.  :class:`Factors` keeps a static-pivot sparse LU
of an earlier matrix of the sequence, in single precision, and applies it
as the preconditioner of the caller's Krylov method on the current matrix.
The factors only need to cut the residual by a large factor per iteration;
the Krylov recurrence and its stopping test stay in float64, and a solve is
accepted only when the true float64 residual meets the tolerance (mixed-
precision iterative refinement).  Single precision halves the factor
memory and, on the 3D Jacobians, nearly halves the factorization time.

An amortised-cost rule on counts of factor applications alone
(:meth:`Factors.stale`) decides when fresh factors of the current matrix pay
for themselves; no clock is read, so two runs of one input take the same
path.  Which solver each block runs is one table, :data:`SOLVERS`, read by
:func:`may_factor` and :func:`pp_gmg` (DESIGN.md section 12).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .krylov import SolveResult

#: Krylov iterations allowed with held factors before the current matrix is
#: factored (CH: 1-4, NS and PP: 1-3).
PRECOND_MAXITER = 8

#: One single-precision factorization in applications of the held factors
#: (a triangular-solve pair and, in the Krylov method, a mat-vec): measured
#: 18 to 33 on the CH, NS and PP matrices (DESIGN.md section 12).  A
#: BiCGStab iteration applies them twice, a CG iteration once.
FACTOR_COST = 20

#: The solver table.  ``lu``: the most DOFs on which a block factors, per
#: dimension where they differ.  Otherwise NS runs Jacobi-BiCGStab, VU
#: Jacobi-CG, PP CG with one GMG V-cycle from ``gmg`` DOFs per axis and
#: Jacobi below, CH the exact LU.  Why each value: DESIGN.md section 12.
SOLVERS = {
    "ch": {"lu": math.inf},
    "ns": {"lu": 2048},
    "pp": {"lu": {2: 8192, 3: 2048}, "gmg": 75.0},
    "vu": {"lu": {2: 8192, 3: 2048}},
}


def may_factor(block: str, mesh, *, blocks_run: int, last_block: bool) -> bool:
    """The flow blocks' factoring predicate: not the solver's first block
    on ``mesh``, the mesh within the block's cap, and not its last block."""
    cap = SOLVERS[block]["lu"]
    if isinstance(cap, dict):
        cap = cap[mesh.dim]
    return blocks_run > 0 and mesh.n_dofs <= cap and not last_block


def pp_gmg(mesh) -> bool:
    """PP's CG takes one GMG V-cycle on ``mesh`` (else Jacobi)."""
    return mesh.n_dofs ** (1.0 / mesh.dim) >= SOLVERS["pp"]["gmg"]


#: The CH Jacobian blocks share the mesh pattern, so the symmetric-pattern
#: ordering with diagonal pivots has 2-4x less fill than COLAMD + partial
#: pivoting.  Diagonal pivoting is not backward stable: these factors are
#: only used behind a residual check or as a preconditioner.
STATIC_PIVOT = dict(
    permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0.0,
    options={"SymmetricMode": True},
)


def _pin_first(A: sp.spmatrix) -> sp.csr_matrix:
    """``A`` with its first row and column those of the identity: a
    constant-nullspace operator made nonsingular by fixing one DOF.  One
    canonical CSR copy of ``A``, edited and compacted in place, with no
    sparse-product temporaries.  Without stored zeros, as ``D A D + (I -
    D)`` with ``D = diag(0, 1, ..., 1)`` built it, so SuperLU orders and
    factors the same matrix."""
    P = A.tocsr(copy=True)
    P.sum_duplicates()
    P.data[P.indptr[0] : P.indptr[1]] = 0.0
    P.data[P.indices == 0] = 0.0
    P[0, 0] = 1.0
    P.eliminate_zeros()
    return P


class Factors:
    """Sparse LU factors of an earlier matrix, held as the preconditioner
    of later solves with nearby matrices, and the counts their refresh rule
    reads.  It lives as long as whoever holds it: one
    ``newton_solve`` call by default, one mesh on the block solvers.

    ``constant_nullspace``: the matrices are singular with the constant
    vector as their nullspace (the pressure Poisson operator).  The factors
    are then those of the matrix with its first DOF pinned, and the
    preconditioner solves for the mean-zero solution of a mean-zero
    right-hand side.
    """

    def __init__(self, *, constant_nullspace: bool = False):
        self.constant_nullspace = constant_nullspace
        self.drop()

    def drop(self) -> None:
        self.lu = None
        self._dtype = None
        self._applied = 0  # applications in the running attempt
        self.spent = 0  # applications since the factorization
        self.solves = 0  # solves since then, the factoring one included
        self.last = 0  # applications in the previous solve

    def stale(self) -> bool:
        """The previous solve cost at least the running average of this
        factorization's solves, the factorization included: a fresh one
        pays for itself.  Counts of applications only, never a clock."""
        return self.last * self.solves >= FACTOR_COST + self.spent

    def factor(self, A: sp.spmatrix, *, exact: bool = False) -> bool:
        """Hold factors of ``A``: single precision with static pivots, or
        with ``exact`` double precision with SuperLU's partial pivoting.
        False (and nothing held) when SuperLU finds them exactly
        singular.

        The factors are those of ``A^T``, whose CSC arrays are ``A``'s CSR
        arrays: no format conversion, one copy of the values in the factors'
        precision (a CSC copy beside it moved ``bubble3d``'s peak memory by
        +7 %), and ``A`` is solved with ``trans="T"``."""
        self.drop()
        if self.constant_nullspace:
            A = _pin_first(A)
        A = A.tocsr()
        if not A.has_canonical_format:  # SuperLU reads sorted indices
            A = A.copy()
            A.sum_duplicates()
        dtype, opts = (np.float64, {}) if exact else (np.float32, STATIC_PIVOT)
        At = sp.csc_matrix(
            (A.data.astype(dtype), A.indices, A.indptr), shape=A.shape[::-1]
        )
        try:
            self.lu = spla.splu(At, **opts)
        except RuntimeError:
            return False
        self._dtype = dtype
        return True

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """The preconditioner: ``r`` through the held factors, in their
        precision, returned in float64."""
        self._applied += 1
        if self.constant_nullspace:
            r = r - r.mean()
            r[0] = 0.0
        z = self.lu.solve(r.astype(self._dtype), trans="T")
        z = z.astype(np.float64, copy=False)
        if self.constant_nullspace:
            z -= z.mean()
        return z

    def _attempt(self, krylov, A, b, tol, x0) -> SolveResult:
        self._applied = 0
        res = krylov(A, b, x0=x0, M=self, tol=tol, maxiter=PRECOND_MAXITER)
        self.spent += self._applied
        self.solves += 1
        self.last = self._applied
        bnorm = float(np.linalg.norm(b)) or 1.0
        if res.converged and not (
            float(np.linalg.norm(b - A @ res.x)) <= tol * bnorm
        ):
            res = replace(res, converged=False)
        return res

    def solve(
        self,
        krylov: Callable[..., SolveResult],
        A: sp.spmatrix,
        b: np.ndarray,
        *,
        tol: float,
        fallback: Callable[[], SolveResult],
        may_factor: bool,
        x0: Optional[np.ndarray] = None,
    ) -> Tuple[SolveResult, int, int]:
        """``A x = b`` by ``krylov`` (``cg`` / ``bicgstab``), preconditioned
        with the held factors, at most :data:`PRECOND_MAXITER` iterations,
        accepted when ``||b - A x|| <= tol ||b||`` in float64; behind it the
        block's own solve, ``fallback()``.

        With ``may_factor``, ``A`` itself is factored first when nothing is
        held or :meth:`stale` says a refresh pays, and after a held-factor
        attempt that fails; without it the held factors are all there is.
        ``fallback`` runs when no attempt was made or the last one failed.
        Returns ``(result, factorizations, fallbacks)``: the final result,
        its iterations those of every attempt; the factorizations made (0
        or 1); 1 when an attempt was made and ``fallback`` redid it, else 0.
        """
        attempted, its, factored = False, 0, 0
        if self.lu is not None and not (may_factor and self.stale()):
            res = self._attempt(krylov, A, b, tol, x0)
            if res.converged:
                return res, 0, 0
            attempted, its = True, res.iterations
        if may_factor:
            attempted, factored = True, 1
            if self.factor(A):
                res = self._attempt(krylov, A, b, tol, x0)
                res = replace(res, iterations=its + res.iterations)
                if res.converged:
                    return res, 1, 0
                its = res.iterations
        res = fallback()
        return (replace(res, iterations=its + res.iterations), factored,
                int(attempted))
