"""Krylov solvers (PETSc KSP substitute).

Implemented from scratch on top of a minimal operator protocol: anything
with ``matvec(x) -> y`` (or a bare callable / scipy sparse matrix) works,
so matrix-free elemental operators and assembled CSR matrices share solvers.
The paper uses PETSc's iterative solvers (it found AMG setup too costly at
scale, Sec. III footnote 5); we provide CG, BiCGStab and restarted GMRES
with Jacobi preconditioning.

``cg`` and ``bicgstab`` allocate their work vectors once per solve and
write every vector update into them with ``out=``: a mat-vec or a
preconditioner result, the ``alpha * p``-style products and the sums.  Two
operators write straight into a work vector (:func:`_apply_into`): a
float64 CSR matrix runs the compiled kernel behind ``A @ x`` on a zeroed
buffer, and :class:`~repro.la.precond.JacobiPreconditioner` multiplies by
its inverse diagonal in place.  Every other operator and preconditioner
(matvec objects, callables, held LU factors, a multigrid cycle) is called
as before and its result copied in.  Each update keeps the order of
operations of the textbook loop it replaces (``p = r + beta (p - omega
v)`` is ``p -= omega v; p *= beta; p += r``), and a norm is ``sqrt(r @
r)``, which is what ``np.linalg.norm`` computes: the iterates, counts and
residuals are bit for bit those of the allocating loops
(``tests/la/test_krylov_oracle.py`` keeps them as the reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .. import obs
from .precond import JacobiPreconditioner


def _as_matvec(A) -> Callable[[np.ndarray], np.ndarray]:
    if sp.issparse(A):
        return lambda x: A @ x
    if hasattr(A, "matvec"):
        return A.matvec
    if callable(A):
        return A
    raise TypeError(f"cannot interpret {type(A)} as an operator")


def _apply_into(A, dtype) -> Callable[[np.ndarray, np.ndarray], None]:
    """``(x, out) -> None`` writing ``A x`` into ``out``, for an operator or
    preconditioner ``A`` and work vectors ``x`` and ``out`` of ``dtype``,
    C-contiguous and owned by the solver.  A float64 CSR matrix runs
    ``csr_matvec``, the kernel ``A @ x`` runs, which adds ``A x`` to its
    output: on a zeroed ``out`` it is bit for bit ``A @ x``, without the
    dispatch and the fresh result.  Jacobi multiplies in place.  Anything
    else is applied as :func:`_as_matvec` does and copied in."""
    if (sp.issparse(A) and A.format == "csr" and len(A.shape) == 2
            and A.dtype == np.float64 and dtype == np.float64
            and A.indptr.dtype == A.indices.dtype):
        n_row, n_col = A.shape

        def csr_into(x, out):
            out.fill(0.0)
            _sparsetools.csr_matvec(
                n_row, n_col, A.indptr, A.indices, A.data, x, out
            )

        return csr_into
    if isinstance(A, JacobiPreconditioner):
        inv_diag = A.inv_diag

        def jacobi_into(x, out):
            np.multiply(inv_diag, x, out=out)

        return jacobi_into
    mv = _as_matvec(A)

    def copy_into(x, out):
        np.copyto(out, mv(x))

    return copy_into


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a work vector, bit for bit."""
    return math.sqrt(v @ v)


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
    return res


def _cg_body(A, b, x0, M, tol, maxiter) -> SolveResult:
    x = np.zeros_like(b) if x0 is None else x0.copy()
    mv = _apply_into(A, x.dtype)
    r = np.empty_like(x)
    if x0 is None:
        np.copyto(r, b)  # A @ 0 is not worth a mat-vec
    else:
        mv(x, r)
        np.subtract(b, r, out=r)
    if M is None:
        z = r  # the identity preconditioner
    else:
        pc = _apply_into(M, x.dtype)
        z = np.empty_like(x)
        pc(r, z)
    p = z.copy()
    Ap = np.empty_like(x)
    tmp = np.empty_like(x)
    rz = float(r @ z)
    bnorm = float(np.linalg.norm(b)) or 1.0
    if _norm(r) / bnorm < tol:
        return SolveResult(x, 0, _norm(r) / bnorm, True)
    for it in range(1, maxiter + 1):
        mv(p, Ap)
        pAp = float(p @ Ap)
        if pAp <= 0:
            # Not SPD (or breakdown); bail out with current iterate.
            return SolveResult(x, it, _norm(r) / bnorm, False)
        alpha = rz / pAp
        np.multiply(p, alpha, out=tmp)
        x += tmp
        np.multiply(Ap, alpha, out=tmp)
        r -= tmp
        res = _norm(r) / bnorm
        if res < tol:
            return SolveResult(x, it, res, True)
        if M is not None:
            pc(r, z)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    mv(x, tmp)
    np.subtract(b, tmp, out=tmp)
    return SolveResult(x, maxiter, _norm(tmp) / bnorm, False)


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
    x = np.zeros_like(b) if x0 is None else x0.copy()
    mv = _apply_into(A, x.dtype)
    r = np.empty_like(x)
    if x0 is None:
        np.copyto(r, b)
    else:
        mv(x, r)
        np.subtract(b, r, out=r)
    bnorm = float(np.linalg.norm(b)) or 1.0
    # Divergence on ill-conditioned systems shows up as overflow before the
    # breakdown checks trip; the caller (e.g. Newton's re-factorization)
    # handles the non-converged result, so the intermediate warnings are noise.
    _old_err = np.seterr(over="ignore", invalid="ignore")
    try:
        with obs.span("krylov.bicgstab"):
            res = _bicgstab_body(mv, M, x, r, bnorm, tol, maxiter, b)
    finally:
        np.seterr(**_old_err)
    return res


def _bicgstab_body(mv, M, x, r, bnorm, tol, maxiter, b):
    res = _norm(r) / bnorm
    if res < tol:  # nothing to do (e.g. zero RHS and guess): not a breakdown
        return SolveResult(x, 0, res, True)
    r0 = r.copy()
    v, p, s, t, tmp = (np.zeros_like(x) for _ in range(5))
    if M is None:
        ph, sh = p, s  # the identity preconditioner
    else:
        pc = _apply_into(M, x.dtype)
        ph, sh = np.empty_like(x), np.empty_like(x)
    rho = alpha = omega = 1.0
    it = 0
    for it in range(1, maxiter + 1):
        rho_new = float(r0 @ r)
        if rho_new == 0.0:
            break
        if it > 1:
            beta = (rho_new / rho) * (alpha / omega)
            np.multiply(v, omega, out=tmp)
            p -= tmp
            p *= beta
            p += r
        else:
            np.copyto(p, r)
        if M is not None:
            pc(p, ph)
        mv(ph, v)
        denom = float(r0 @ v)
        if denom == 0.0:
            break
        alpha = rho_new / denom
        np.multiply(v, alpha, out=s)
        np.subtract(r, s, out=s)
        if _norm(s) / bnorm < tol:
            np.multiply(ph, alpha, out=tmp)
            x += tmp
            return SolveResult(x, it, _norm(s) / bnorm, True)
        if M is not None:
            pc(s, sh)
        mv(sh, t)
        tt = float(t @ t)
        omega = float(t @ s) / tt if tt > 0 else 0.0
        np.multiply(ph, alpha, out=tmp)
        np.multiply(sh, omega, out=r)  # r is free until its update below
        tmp += r
        x += tmp
        np.multiply(t, omega, out=r)
        np.subtract(s, r, out=r)
        res = _norm(r) / bnorm
        if res < tol:
            return SolveResult(x, it, res, True)
        if omega == 0.0:
            break
        rho = rho_new
        if not np.all(np.isfinite(x)):
            break  # diverged; report non-convergence
    mv(x, tmp)
    np.subtract(b, tmp, out=tmp)
    res = _norm(tmp) / bnorm
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
