"""Newton-Krylov nonlinear solver (PETSc SNES substitute).

Used by the fully-implicit Cahn-Hilliard block solve (paper Sec. II-A,
step 1).  The residual/Jacobian callbacks assemble sparse operators.  The
inner linear solve is BiCGStab preconditioned with single-precision sparse
LU factors of a Jacobian (:class:`repro.la.factors.Factors`: symmetric
ordering, diagonal pivots), reused for every later iterate - of the same
solve and, when the caller keeps the holder, of later solves - until an
amortised-cost rule refreshes them (DESIGN.md section 12).

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

from .. import obs
from .factors import Factors
from .krylov import SolveResult, bicgstab


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

    def get(self, x: np.ndarray, key, build: Callable[[], object]):
        if self._x is None or not np.array_equal(self._x, x):
            self._x, self._vals = x.copy(), {}
        if key not in self._vals:
            self._vals[key] = build()
        return self._vals[key]


#: Inexact-Newton forcing (Eisenstat-Walker choice 2): the first iterate's
#: linear solve stops at relative residual ``ETA_MAX``, iterate ``k`` at
#: ``min(ETA_MAX, ETA_GAMMA * (||F_k|| / ||F_{k-1}||)**2)``; the caller's
#: ``linear_tol`` is the floor.  A solve is only as exact as the quadratic
#: contraction of the next iterate can use (DESIGN.md section 12).
ETA_MAX = 1e-4
ETA_GAMMA = 0.9


@dataclass
class NewtonResult:
    x: np.ndarray
    iterations: int
    residual: float
    converged: bool
    #: BiCGStab iterations of the LU-preconditioned linear solves
    linear_iterations: int = 0
    #: sparse LU factorizations, single-precision and fallback together
    factorizations: int = 0
    #: factorizations that were the partial-pivoting safety net
    fallbacks: int = 0
    #: residual evaluations of the backtracking line search (1 per full step)
    line_search_trials: int = 0


def _linear_step(factors: Factors, J, F, norm_F, linear_tol, out):
    """``dx`` with ``||J dx + F|| <= linear_tol ||F||``, None when ``J`` is
    singular: BiCGStab preconditioned with the held (or fresh) factors, and
    behind it a direct solve with double-precision partial-pivoting
    factors, which are held from then on."""
    b = -F

    def direct() -> SolveResult:
        if not factors.factor(J, exact=True):
            return SolveResult(b, 0, np.inf, False)
        dx = factors(b)
        return SolveResult(dx, 0, np.nan, bool(np.all(np.isfinite(dx))))

    res, factored, fell_back = factors.solve(
        bicgstab, J, b, tol=linear_tol, fallback=direct, may_factor=True
    )
    out.linear_iterations += res.iterations
    out.fallbacks += fell_back
    out.factorizations += factored + fell_back
    return res.x if res.converged else None


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
    ``||J dx + F|| <= max(linear_tol, eta_k) ||F||`` with the forcing term
    ``eta_k`` of ``ETA_MAX`` / ``ETA_GAMMA`` in the true float64 residual:
    by BiCGStab preconditioned with the LU factors ``factors`` holds, or -
    when it holds none, they stopped converging or :meth:`Factors.stale`
    says a refresh pays - with fresh single-precision static-pivot factors
    of the current Jacobian, and behind those a direct solve with
    double-precision partial-pivoting factors.  ``factors`` outlives the
    call when the caller passes one; it comes back empty from a solve that
    does not converge.

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
    eta = ETA_MAX
    for it in range(1, maxiter + 1):
        with obs.span("newton.jacobian"):
            J = jacobian(x).tocsr()
        with obs.span("newton.linear"):
            dx = _linear_step(factors, J, F, norm_F, max(linear_tol, eta), out)
        if dx is None:
            return out
        # Backtracking line search on the residual norm (computed once per
        # trial; the reference norm is hoisted out of the loop).
        step = 1.0
        for _ in range(8):
            out.line_search_trials += 1
            x_new = x + step * dx
            with obs.span("newton.residual"):
                F_new = residual(x_new)
            norm_new = float(np.linalg.norm(F_new))
            if norm_new < (1.0 - 0.1 * step) * norm_F or step < 1e-3:
                break
            step *= 0.5
        eta = min(ETA_MAX, ETA_GAMMA * (norm_new / norm_F) ** 2)
        x, F, norm_F = x_new, F_new, norm_new
        out.x, out.iterations, out.residual = x, it, norm_F
        if norm_F < tol or norm_F < rtol * norm0:
            out.converged = True
            return out
    return out
