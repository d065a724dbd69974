"""``cg`` and ``bicgstab`` against the allocating loops they replaced.

The solvers write every update into work vectors allocated once per solve,
run a float64 CSR mat-vec through SciPy's compiled kernel and apply Jacobi
in place.  Each update keeps its order of operations, so the iterates are
bit for bit those of the loops below: ``_cg_body`` / ``_bicgstab_body`` as
they were before the work vectors, kept here verbatim as the reference.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from repro.chns import forms
from repro.fem.plan import get_plan
from repro.la import krylov
from repro.la.factors import Factors
from repro.la.krylov import SolveResult, bicgstab, cg
from repro.la.precond import JacobiPreconditioner, make_preconditioner
from repro.mesh.mesh import Mesh
from repro.octree.build import uniform_tree

from .test_solvers import CountingOperator

# ---------------------------------------------------------------- reference


def _as_matvec(A):
    if sp.issparse(A):
        return lambda x: A @ x
    if hasattr(A, "matvec"):
        return A.matvec
    if callable(A):
        return A
    raise TypeError(f"cannot interpret {type(A)} as an operator")


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


def reference_bicgstab(A, b, x0=None, *, M=None, tol=1e-10, maxiter=2000):
    mv = _as_matvec(A)
    pc = _as_matvec(M) if M is not None else (lambda r: r)
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = b.copy() if x0 is None else b - mv(x)
    r0 = r.copy()
    bnorm = float(np.linalg.norm(b)) or 1.0
    _old_err = np.seterr(over="ignore", invalid="ignore")
    try:
        return _bicgstab_body(mv, pc, x, r, r0, bnorm, tol, maxiter, b)
    finally:
        np.seterr(**_old_err)


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


def reference_cg(A, b, x0=None, *, M=None, tol=1e-10, maxiter=1000):
    return _cg_body(A, b, x0, M, tol, maxiter)


# ----------------------------------------------------------------- systems


@pytest.fixture(scope="module")
def systems():
    """A velocity-block-like SPD matrix and a momentum-like nonsymmetric
    one on a 2D mesh's assembly plan, a Dirichlet mask, a right-hand side
    and a pressure-Poisson stiffness for the GMG cycle."""
    mesh = Mesh.from_tree(uniform_tree(2, 4))
    plan = get_plan(mesh)
    xy = mesh.dof_xy()
    mask = (xy[:, 0] < 1e-12) | (xy[:, 1] > 1 - 1e-12)
    vel = np.stack([np.sin(np.pi * xy[:, 1]), np.cos(xy[:, 0])], axis=1)
    spd = plan.assemble(forms.mass_ke(mesh) * 50.0 + forms.stiffness_ke(mesh))
    nonsym = plan.assemble(
        forms.mass_ke(mesh) * 50.0 + forms.stiffness_ke(mesh) * 0.5
        + forms.convection_ke(mesh, forms.field_at_quad(mesh, 2.0 * vel))
    )
    rng = np.random.default_rng(3)
    b = rng.standard_normal(mesh.n_dofs)
    b[mask] = 0.0
    return mesh, plan, mask, spd, nonsym, b, forms.stiffness(mesh)


def _stored_zeros(A, plan, mask):
    """``A`` eliminated in the plan's full layout, every eliminated
    coupling kept as a stored zero: a CSR whose mat-vec adds ``0.0 * x_j``
    where the compact one adds nothing."""
    rows = np.repeat(np.arange(plan.n_dofs), np.diff(plan.indptr))
    hit = mask[rows] | mask[plan.indices]
    data = A.data.copy()
    data[hit] = 0.0
    data[hit & (rows == plan.indices)] = 1.0
    return sp.csr_matrix((data, plan.indices, plan.indptr), shape=A.shape)


def _operators(A, plan, mask):
    """The plan's compact eliminated CSR, the same matrix with the
    eliminated couplings stored as zeros, a matvec object and a bare
    callable."""
    canon = plan.eliminate(A, mask)
    zeros = _stored_zeros(A, plan, mask)
    assert np.any(zeros.data == 0.0) and canon.nnz < zeros.nnz
    compacted = zeros.copy()
    compacted.eliminate_zeros()
    assert canon.has_canonical_format
    for got, want in ((canon.indptr, compacted.indptr),
                      (canon.indices, compacted.indices),
                      (canon.data, compacted.data)):
        assert np.array_equal(got, want)
    return {
        "csr": lambda: canon,
        "zeros": lambda: zeros,
        "counting": lambda: CountingOperator(zeros),
        "callable": lambda: (lambda v: canon @ v),
    }, canon


def _preconditioners(A, mesh, K):
    held = Factors()
    assert held.factor(A)
    return {
        "none": lambda: None,
        "jacobi": lambda: JacobiPreconditioner(A),
        "factors": lambda: held,
        "gmg": lambda: make_preconditioner(mesh, K),
    }


def _same(got, want):
    assert np.array_equal(got.x, want.x, equal_nan=True)
    assert got.iterations == want.iterations
    assert got.residual == want.residual or (
        np.isnan(got.residual) and np.isnan(want.residual))
    assert got.converged == want.converged


@pytest.mark.parametrize("solver", ["cg", "bicgstab"])
def test_bit_equal_to_the_allocating_loops(systems, solver):
    mesh, plan, mask, spd, nonsym, b, K = systems
    solve, ref = {"cg": (cg, reference_cg),
                  "bicgstab": (bicgstab, reference_bicgstab)}[solver]
    ops, A = _operators(spd if solver == "cg" else nonsym, plan, mask)
    pcs = _preconditioners(A, mesh, K)
    x0 = np.cos(mesh.dof_xy()[:, 0] * 3.0)
    runs = 0
    for (op, make_op), (pc, make_pc), start in itertools.product(
        ops.items(), pcs.items(), (None, x0)
    ):
        for tol, maxiter in ((1e-10, 500), (1e-14, 3)):
            kw = dict(M=make_pc(), tol=tol, maxiter=maxiter)
            got = solve(make_op(), b, None if start is None else start.copy(),
                        **kw)
            kw["M"] = make_pc()
            want = ref(make_op(), b, None if start is None else start.copy(),
                       **kw)
            _same(got, want)
            if maxiter == 3 and op == "csr" and pc == "none":
                assert not got.converged and got.iterations == 3
            if maxiter == 500 and pc != "gmg":
                assert got.converged, (op, pc, start is None)
            runs += 1
    assert runs == 4 * 4 * 2 * 2


@pytest.mark.parametrize("solve, ref", [(cg, reference_cg),
                                        (bicgstab, reference_bicgstab)])
def test_zero_rhs(systems, solve, ref):
    mesh, plan, mask, spd, _, _, _ = systems
    b = np.zeros(mesh.n_dofs)
    for x0 in (None, np.ones(mesh.n_dofs)):
        for M in (None, JacobiPreconditioner(spd)):
            got = solve(spd, b, None if x0 is None else x0.copy(), M=M)
            want = ref(spd, b, None if x0 is None else x0.copy(), M=M)
            _same(got, want)
    assert solve(spd, b).iterations == 0


@pytest.mark.parametrize("solve, ref", [(cg, reference_cg),
                                        (bicgstab, reference_bicgstab)])
def test_breakdown_on_a_skew_operator(solve, ref):
    """``r0 . A r0 = 0`` exactly for a skew-symmetric integer ``A`` and
    an integer ``b``: CG's ``pAp <= 0`` exit and BiCGStab's zero-denominator
    breakdown, at iteration 1."""
    rng = np.random.default_rng(5)
    B = sp.random(40, 40, density=0.2, random_state=7, format="csr",
                  data_rvs=lambda n: rng.integers(-3, 4, n).astype(float))
    S = (B - B.T).tocsr()
    b = rng.integers(-5, 6, 40).astype(float)
    for M in (None, JacobiPreconditioner(np.ones(40))):
        got, want = solve(S, b, M=M), ref(S, b, M=M)
        _same(got, want)
        assert not got.converged and got.iterations == 1


def test_bicgstab_divergence_stops_like_the_reference():
    """Overflowing iterates: the finite check ends both loops at the same
    iteration with the same non-finite state."""
    A = sp.csr_matrix(np.array([[1e-300, 1.0], [1.0, 1e300]]))
    b = np.array([1.0, 1e-300])
    _same(bicgstab(A, b, maxiter=50), reference_bicgstab(A, b, maxiter=50))


class TestApplyInto:
    """The CSR kernel path is ``A @ x`` bit for bit, whatever ``out`` held
    before, for int32 and int64 indices and ``data`` longer than ``nnz``;
    Jacobi and every other operator write what they return."""

    @staticmethod
    def _check(A, x):
        out = np.full(A.shape[0], np.nan)
        krylov._apply_into(A, np.float64)(x, out)
        assert np.array_equal(out, A @ x)

    def test_canonical_and_plan_matrices(self, systems):
        _, plan, mask, spd, nonsym, b, _ = systems
        for A in (spd, nonsym, plan.eliminate(nonsym, mask)):
            self._check(A, b)

    def test_int64_indices(self, systems):
        A = systems[4].copy()
        A.indices = A.indices.astype(np.int64)
        A.indptr = A.indptr.astype(np.int64)
        assert A.indices.dtype == A.indptr.dtype == np.int64
        self._check(A, systems[5])

    def test_data_longer_than_nnz(self, systems):
        A = systems[4].copy()
        nnz = A.nnz
        A.data = np.concatenate([A.data, [1e300, np.nan]])
        A.indices = np.concatenate([A.indices, [0, 1]]).astype(A.indptr.dtype)
        assert A.indptr[-1] == nnz < len(A.data)
        self._check(A, systems[5])

    def test_jacobi_and_other_operators(self, systems):
        A, x = systems[4], systems[5]
        for op in (JacobiPreconditioner(A), CountingOperator(A),
                   lambda v: A @ v, A.tocsc(), A.astype(np.float32)):
            out = np.full(A.shape[0], np.nan)
            krylov._apply_into(op, np.float64)(x, out)
            assert np.array_equal(out, _as_matvec(op)(x))
