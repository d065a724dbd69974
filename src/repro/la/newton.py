"""Newton-Krylov nonlinear solver (PETSc SNES substitute).

Used by the fully-implicit Cahn-Hilliard block solve (paper Sec. II-A,
step 1).  The residual/Jacobian callbacks assemble sparse operators.  The
inner linear solve factors a Jacobian (sparse LU, symmetric ordering,
diagonal pivots) and reuses those factors as the BiCGStab preconditioner
for every later iterate - of the same solve and, when the caller keeps the
:class:`Factors` holder, of later solves - until an amortised-cost rule
refreshes them (DESIGN.md section 12).

:class:`IterateCache` is the per-iterate operator cache the CH block plugs
its callbacks into: Newton evaluates ``residual`` and ``jacobian`` at the
same iterate back to back, and both need the same expensive mesh-wide
products (quad-point field values, the mobility stiffness).  Keying a small
cache on the iterate vector lets the two callbacks share one evaluation
instead of assembling everything twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .. import obs
from .krylov import bicgstab


class IterateCache:
    """Share expensive products between callbacks evaluated at one iterate.

    ``get(x, key, build)`` returns the cached value of ``key`` if ``x``
    matches the iterate the cache currently holds (exact array equality —
    line-search trial points at new iterates invalidate automatically), and
    calls ``build()`` otherwise.  Only the latest iterate is retained: the
    Newton loop never revisits older ones.
    """

    def __init__(self):
        self._x: Optional[np.ndarray] = None
        self._vals: dict = {}

    def at(self, x: np.ndarray) -> dict:
        """The value dict for iterate ``x``, cleared if ``x`` is new."""
        if (
            self._x is None
            or self._x.shape != x.shape
            or not np.array_equal(self._x, x)
        ):
            self._x = x.copy()
            self._vals = {}
        return self._vals

    def get(self, x: np.ndarray, key, build: Callable[[], object]):
        vals = self.at(x)
        if key not in vals:
            vals[key] = build()
        return vals[key]

    def clear(self) -> None:
        self._x = None
        self._vals = {}


#: BiCGStab iterations allowed with an earlier iterate's LU factors as the
#: preconditioner before the current Jacobian is re-factored (CH: 2-4).
_PRECOND_MAXITER = 8

#: One factorization in LU-preconditioned BiCGStab iterations: measured 8 to
#: 13 on the benchmark CH Jacobians (DESIGN.md section 12).
FACTOR_COST = 10

#: All CH Jacobian blocks share the mesh pattern, so the symmetric-pattern
#: ordering with diagonal pivots has 2-4x less fill than COLAMD + partial
#: pivoting.  Diagonal pivoting is not backward stable: these factors are
#: only used behind a residual check or as a preconditioner.
_STATIC_PIVOT = dict(
    permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0.0,
    options={"SymmetricMode": True},
)


@dataclass
class NewtonResult:
    x: np.ndarray
    iterations: int
    residual: float
    converged: bool
    #: BiCGStab iterations of the LU-preconditioned iterates
    linear_iterations: int = 0
    #: sparse LU factorizations, static-pivot and fallback together
    factorizations: int = 0
    #: factorizations that were the partial-pivoting safety net
    fallbacks: int = 0


class Factors:
    """The state of the Newton linear solve: sparse LU factors of an earlier
    Jacobian and the iteration counts their refresh rule reads.  It lives as
    long as whoever holds it: one ``newton_solve`` call by default, one mesh
    generation on :class:`~repro.chns.ch_solver.CHSolver`."""

    def __init__(self):
        self.drop()

    def drop(self) -> None:
        self.lu = None
        self.spent = 0  # BiCGStab iterations since the factorization
        self.solves = 0  # linear solves since then, the factoring one included
        self.last = 0  # BiCGStab iterations of the previous solve

    def stale(self) -> bool:
        """The previous solve cost at least the running average of this
        factorization's solves, the factorization included: a fresh one
        pays for itself.  Iteration counts only, never a clock."""
        return self.last * self.solves >= FACTOR_COST + self.spent

    def _factor(self, Jc, b, out: NewtonResult, **opts):
        """``dx`` from a fresh sparse LU of ``Jc``, kept as ``self.lu``;
        None when SuperLU reports an exactly singular factor or the solve
        is not finite."""
        self.drop()
        self.solves = 1
        out.factorizations += 1
        obs.incr("newton.lu_factorizations")
        try:
            self.lu = spla.splu(Jc, **opts)
        except RuntimeError:
            return None
        dx = self.lu.solve(b)
        return dx if np.all(np.isfinite(dx)) else None

    def solve(self, J, F, norm_F, linear_tol, out: NewtonResult):
        """``dx`` with ``||J dx + F|| <= linear_tol ||F||``, None when ``J``
        is singular."""
        b = -F
        if self.lu is not None and not self.stale():
            res = bicgstab(
                J, b, M=self.lu.solve, tol=linear_tol, maxiter=_PRECOND_MAXITER
            )
            out.linear_iterations += res.iterations
            self.spent += res.iterations
            self.solves += 1
            self.last = res.iterations
            if res.converged:
                return res.x
            # J moved too far from the factored iterate: factor the current one.
        Jc = J.tocsc()
        dx = self._factor(Jc, b, out, **_STATIC_PIVOT)
        if (
            dx is not None
            and float(np.linalg.norm(J @ dx + F)) <= linear_tol * norm_F
        ):
            return dx
        out.fallbacks += 1
        obs.incr("newton.lu_fallbacks")
        return self._factor(Jc, b, out)


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], sp.spmatrix],
    x0: np.ndarray,
    *,
    tol: float = 1e-9,
    rtol: float = 1e-8,
    maxiter: int = 25,
    linear_tol: float = 1e-8,
    factors: Optional[Factors] = None,
) -> NewtonResult:
    """Newton with a backtracking line search and LU-based inner solves.

    Converges when ``||F(x)|| < tol`` or drops by ``rtol`` relative to the
    initial residual.  Every Newton step ``dx`` satisfies
    ``||J dx + F|| <= linear_tol ||F||``: by BiCGStab preconditioned with
    the LU factors ``factors`` holds, or - when it holds none, they stopped
    converging or :meth:`Factors.stale` says a refresh pays - by a direct
    solve with static-pivot factors of the current Jacobian (checked,
    partial-pivoting LU as the fallback).  ``factors`` outlives the call
    when the caller passes one; it comes back empty from a solve that does
    not converge.

    A Jacobian SuperLU finds exactly singular ends the solve at the current
    iterate with ``converged=False``; no step is taken from it.
    """
    if factors is None:
        factors = Factors()
    with obs.span("newton"):
        out = _newton_body(
            residual, jacobian, x0, tol, rtol, maxiter, linear_tol, factors
        )
    if not out.converged:
        factors.drop()
    return out


def _newton_body(
    residual, jacobian, x0, tol, rtol, maxiter, linear_tol, factors
) -> NewtonResult:
    x = x0.copy()
    with obs.span("newton.residual"):
        F = residual(x)
    norm_F = float(np.linalg.norm(F))
    norm0 = norm_F
    out = NewtonResult(x, 0, norm0, norm0 < tol)
    if out.converged:
        return out
    for it in range(1, maxiter + 1):
        with obs.span("newton.jacobian"):
            J = jacobian(x).tocsr()
        with obs.span("newton.linear"):
            dx = factors.solve(J, F, norm_F, linear_tol, out)
        if dx is None:
            return out
        obs.incr("newton.iterations")
        # Backtracking line search on the residual norm (computed once per
        # trial; the reference norm is hoisted out of the loop).
        step = 1.0
        for _ in range(8):
            obs.incr("newton.line_search_trials")
            x_new = x + step * dx
            with obs.span("newton.residual"):
                F_new = residual(x_new)
            norm_new = float(np.linalg.norm(F_new))
            if norm_new < (1.0 - 0.1 * step) * norm_F or step < 1e-3:
                break
            step *= 0.5
        x, F, norm_F = x_new, F_new, norm_new
        out.x, out.iterations, out.residual = x, it, norm_F
        if norm_F < tol or norm_F < rtol * norm0:
            out.converged = True
            return out
    return out
