"""Krylov solvers (PETSc KSP substitute).

Implemented from scratch on top of a minimal operator protocol: anything
with ``matvec(x) -> y`` (or a bare callable / scipy sparse matrix) works,
so matrix-free elemental operators and assembled CSR matrices share solvers.
The paper uses PETSc's iterative solvers (it found AMG setup too costly at
scale, Sec. III footnote 5); we provide CG, BiCGStab and restarted GMRES
with Jacobi preconditioning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .. import obs


def _as_matvec(A) -> Callable[[np.ndarray], np.ndarray]:
    if sp.issparse(A):
        return lambda x: A @ x
    if hasattr(A, "matvec"):
        return A.matvec
    if callable(A):
        return A
    raise TypeError(f"cannot interpret {type(A)} as an operator")


@dataclass
class SolveResult:
    x: np.ndarray
    iterations: int
    residual: float
    converged: bool


def cg(
    A,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    *,
    M=None,
    tol: float = 1e-10,
    maxiter: int = 1000,
) -> SolveResult:
    """Preconditioned conjugate gradients (SPD systems)."""
    with obs.span("krylov.cg"):
        res = _cg_body(A, b, x0, M, tol, maxiter)
    obs.incr("krylov.solves")
    obs.incr("krylov.iterations", res.iterations)
    return res


def _cg_body(A, b, x0, M, tol, maxiter) -> SolveResult:
    mv = _as_matvec(A)
    pc = _as_matvec(M) if M is not None else (lambda r: r)
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = b.copy() if x0 is None else b - mv(x)  # A @ 0 is not worth a mat-vec
    z = pc(r)
    p = z.copy()
    rz = float(r @ z)
    bnorm = float(np.linalg.norm(b)) or 1.0
    if float(np.linalg.norm(r)) / bnorm < tol:
        return SolveResult(x, 0, float(np.linalg.norm(r)) / bnorm, True)
    for it in range(1, maxiter + 1):
        Ap = mv(p)
        pAp = float(p @ Ap)
        if pAp <= 0:
            # Not SPD (or breakdown); bail out with current iterate.
            return SolveResult(x, it, float(np.linalg.norm(r)) / bnorm, False)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = float(np.linalg.norm(r)) / bnorm
        if res < tol:
            return SolveResult(x, it, res, True)
        z = pc(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return SolveResult(x, maxiter, float(np.linalg.norm(b - mv(x))) / bnorm, False)


def bicgstab(
    A,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    *,
    M=None,
    tol: float = 1e-10,
    maxiter: int = 2000,
) -> SolveResult:
    """BiCGStab for nonsymmetric systems (momentum / convection blocks)."""
    mv = _as_matvec(A)
    pc = _as_matvec(M) if M is not None else (lambda r: r)
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = b.copy() if x0 is None else b - mv(x)
    r0 = r.copy()
    bnorm = float(np.linalg.norm(b)) or 1.0
    # Divergence on ill-conditioned systems shows up as overflow before the
    # breakdown checks trip; the caller (e.g. Newton's re-factorization)
    # handles the non-converged result, so the intermediate warnings are noise.
    _old_err = np.seterr(over="ignore", invalid="ignore")
    try:
        with obs.span("krylov.bicgstab"):
            res = _bicgstab_body(mv, pc, x, r, r0, bnorm, tol, maxiter, b)
    finally:
        np.seterr(**_old_err)
    obs.incr("krylov.solves")
    obs.incr("krylov.iterations", res.iterations)
    return res


def _bicgstab_body(mv, pc, x, r, r0, bnorm, tol, maxiter, b):
    res = float(np.linalg.norm(r)) / bnorm
    if res < tol:  # nothing to do (e.g. zero RHS and guess): not a breakdown
        return SolveResult(x, 0, res, True)
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    it = 0
    for it in range(1, maxiter + 1):
        rho_new = float(r0 @ r)
        if rho_new == 0.0:
            break
        beta = (rho_new / rho) * (alpha / omega) if it > 1 else 0.0
        p = r + beta * (p - omega * v) if it > 1 else r.copy()
        ph = pc(p)
        v = mv(ph)
        denom = float(r0 @ v)
        if denom == 0.0:
            break
        alpha = rho_new / denom
        s = r - alpha * v
        if float(np.linalg.norm(s)) / bnorm < tol:
            x += alpha * ph
            return SolveResult(x, it, float(np.linalg.norm(s)) / bnorm, True)
        sh = pc(s)
        t = mv(sh)
        tt = float(t @ t)
        omega = float(t @ s) / tt if tt > 0 else 0.0
        x += alpha * ph + omega * sh
        r = s - omega * t
        res = float(np.linalg.norm(r)) / bnorm
        if res < tol:
            return SolveResult(x, it, res, True)
        if omega == 0.0:
            break
        rho = rho_new
        if not np.all(np.isfinite(x)):
            break  # diverged; report non-convergence
    res = float(np.linalg.norm(b - mv(x))) / bnorm
    if not np.isfinite(res):
        res = np.inf
    # ``it`` is the iteration a breakdown stopped in, maxiter otherwise.
    return SolveResult(x, it, res, False)


def gmres(
    A,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    *,
    M=None,
    tol: float = 1e-10,
    restart: int = 50,
    maxiter: int = 2000,
) -> SolveResult:
    """Restarted GMRES with left preconditioning."""
    with obs.span("krylov.gmres"):
        res = _gmres_body(A, b, x0, M, tol, restart, maxiter)
    obs.incr("krylov.solves")
    obs.incr("krylov.iterations", res.iterations)
    return res


def _gmres_body(A, b, x0, M, tol, restart, maxiter) -> SolveResult:
    mv = _as_matvec(A)
    pc = _as_matvec(M) if M is not None else (lambda r: r)
    x = np.zeros_like(b) if x0 is None else x0.copy()
    bnorm = float(np.linalg.norm(pc(b))) or 1.0
    total_it = 0
    while total_it < maxiter:
        r = pc(b - mv(x))
        beta = float(np.linalg.norm(r))
        if beta / bnorm < tol:
            return SolveResult(x, total_it, beta / bnorm, True)
        m = min(restart, maxiter - total_it)
        Q = np.zeros((len(b), m + 1))
        H = np.zeros((m + 1, m))
        Q[:, 0] = r / beta
        g = np.zeros(m + 1)
        g[0] = beta
        cs = np.zeros(m)
        sn = np.zeros(m)
        k_used = 0
        for k in range(m):
            total_it += 1
            wv = pc(mv(Q[:, k]))
            for j in range(k + 1):
                H[j, k] = float(Q[:, j] @ wv)
                wv -= H[j, k] * Q[:, j]
            H[k + 1, k] = float(np.linalg.norm(wv))
            if H[k + 1, k] > 1e-14:
                Q[:, k + 1] = wv / H[k + 1, k]
            # Givens rotations to maintain the least-squares triangle.
            for j in range(k):
                t = cs[j] * H[j, k] + sn[j] * H[j + 1, k]
                H[j + 1, k] = -sn[j] * H[j, k] + cs[j] * H[j + 1, k]
                H[j, k] = t
            denom = np.hypot(H[k, k], H[k + 1, k])
            cs[k] = H[k, k] / denom if denom else 1.0
            sn[k] = H[k + 1, k] / denom if denom else 0.0
            H[k, k] = denom
            H[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k_used = k + 1
            if abs(g[k + 1]) / bnorm < tol:
                break
        # lstsq tolerates the (rank-deficient) breakdown case — e.g. a zero
        # or singular operator — where solve() would raise.
        y = np.linalg.lstsq(H[:k_used, :k_used], g[:k_used], rcond=None)[0]
        x = x + Q[:, :k_used] @ y
        if abs(g[k_used]) / bnorm < tol:
            # Verify with the true residual: the least-squares estimate can
            # report a false zero on breakdown (e.g. a singular operator).
            res = float(np.linalg.norm(b - mv(x))) / (float(np.linalg.norm(b)) or 1.0)
            return SolveResult(x, total_it, res, res < 10 * tol)
    res = float(np.linalg.norm(b - mv(x))) / (float(np.linalg.norm(b)) or 1.0)
    return SolveResult(x, total_it, res, res < tol)
