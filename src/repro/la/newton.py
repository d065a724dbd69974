"""Newton-Krylov nonlinear solver (PETSc SNES substitute).

Used by the fully-implicit Cahn-Hilliard block solve (paper Sec. II-A,
step 1).  The residual/Jacobian callbacks assemble sparse operators.  The
inner linear solve factors the first iterate's Jacobian once (sparse LU,
symmetric ordering, diagonal pivots) and reuses those factors as the
BiCGStab preconditioner for the later iterates of the same solve
(DESIGN.md section 12).

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
    #: BiCGStab iterations of the LU-preconditioned later iterates
    linear_iterations: int = 0
    #: sparse LU factorizations, static-pivot and fallback together
    factorizations: int = 0
    #: factorizations that were the partial-pivoting safety net
    fallbacks: int = 0


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], sp.spmatrix],
    x0: np.ndarray,
    *,
    tol: float = 1e-9,
    rtol: float = 1e-8,
    maxiter: int = 25,
    linear_tol: float = 1e-8,
) -> NewtonResult:
    """Newton with a backtracking line search and LU-based inner solves.

    Converges when ``||F(x)|| < tol`` or drops by ``rtol`` relative to the
    initial residual.  Every Newton step ``dx`` satisfies
    ``||J dx + F|| <= linear_tol ||F||``: the first iterate by a direct
    solve with static-pivot LU factors (checked, partial-pivoting LU as the
    fallback), later iterates by BiCGStab preconditioned with the factors
    already held, re-factoring when that stops converging.  The factors die
    with the call.

    A Jacobian SuperLU finds exactly singular ends the solve at the current
    iterate with ``converged=False``; no step is taken from it.
    """
    with obs.span("newton"):
        return _newton_body(
            residual, jacobian, x0, tol, rtol, maxiter, linear_tol
        )


def _factor_solve(Jc, b, out: NewtonResult, **opts):
    """``(lu, dx)`` from a fresh sparse LU of ``Jc``; ``dx`` is None when
    SuperLU reports an exactly singular factor or the solve is not finite."""
    out.factorizations += 1
    obs.incr("newton.lu_factorizations")
    try:
        lu = spla.splu(Jc, **opts)
    except RuntimeError:
        return None, None
    dx = lu.solve(b)
    return lu, dx if np.all(np.isfinite(dx)) else None


def _linear_step(J, F, norm_F, lu, linear_tol, out: NewtonResult):
    """Solve ``J dx = -F`` to ``linear_tol``; returns ``(lu, dx)`` with the
    factors to precondition the next iterate, ``dx`` None when singular."""
    b = -F
    if lu is not None:
        res = bicgstab(
            J, b, M=lu.solve, tol=linear_tol, maxiter=_PRECOND_MAXITER
        )
        out.linear_iterations += res.iterations
        if res.converged:
            return lu, res.x
        # J moved too far from the factored iterate: factor the current one.
    Jc = J.tocsc()
    lu, dx = _factor_solve(Jc, b, out, **_STATIC_PIVOT)
    if (
        dx is not None
        and float(np.linalg.norm(J @ dx + F)) <= linear_tol * norm_F
    ):
        return lu, dx
    out.fallbacks += 1
    obs.incr("newton.lu_fallbacks")
    return _factor_solve(Jc, b, out)


def _newton_body(
    residual, jacobian, x0, tol, rtol, maxiter, linear_tol
) -> NewtonResult:
    x = x0.copy()
    with obs.span("newton.residual"):
        F = residual(x)
    norm_F = float(np.linalg.norm(F))
    norm0 = norm_F
    out = NewtonResult(x, 0, norm0, norm0 < tol)
    if out.converged:
        return out
    lu = None
    for it in range(1, maxiter + 1):
        with obs.span("newton.jacobian"):
            J = jacobian(x).tocsr()
        with obs.span("newton.linear"):
            lu, dx = _linear_step(J, F, norm_F, lu, linear_tol, out)
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
