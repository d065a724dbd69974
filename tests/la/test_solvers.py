"""Tests for Krylov solvers, preconditioners and Newton."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.la import newton
from repro.la.krylov import SolveResult, bicgstab, cg, gmres
from repro.la.newton import Factors, newton_solve
from repro.la.precond import JacobiPreconditioner


def spd_system(n=80, seed=0):
    rng = np.random.default_rng(seed)
    B = sp.random(n, n, density=0.1, random_state=rng.integers(2**31))
    A = (B @ B.T + sp.eye(n) * n * 0.1).tocsr()
    x = rng.standard_normal(n)
    return A, A @ x, x


def nonsym_system(n=80, seed=1):
    rng = np.random.default_rng(seed)
    A = (
        sp.random(n, n, density=0.1, random_state=rng.integers(2**31))
        + sp.eye(n) * 4.0
    ).tocsr()
    x = rng.standard_normal(n)
    return A, A @ x, x


class TestCG:
    def test_solves_spd(self):
        A, b, x = spd_system()
        res = cg(A, b, tol=1e-12, maxiter=500)
        assert res.converged
        assert np.allclose(res.x, x, atol=1e-6)

    def test_jacobi_accelerates(self):
        A, b, x = spd_system(seed=3)
        plain = cg(A, b, tol=1e-10, maxiter=1000)
        pre = cg(A, b, M=JacobiPreconditioner(A), tol=1e-10, maxiter=1000)
        assert pre.converged
        assert pre.iterations <= plain.iterations + 5

    def test_zero_rhs(self):
        A, _, _ = spd_system()
        res = cg(A, np.zeros(A.shape[0]))
        assert res.converged
        assert np.allclose(res.x, 0.0)

    def test_initial_guess(self):
        A, b, x = spd_system()
        res = cg(A, b, x0=x.copy(), tol=1e-12)
        assert res.converged
        assert res.iterations <= 1

    def test_callable_operator(self):
        A, b, x = spd_system()
        res = cg(lambda v: A @ v, b, tol=1e-12, maxiter=500)
        assert res.converged

    def test_nonconvergence_reported(self):
        A, b, _ = spd_system()
        res = cg(A, b, tol=1e-14, maxiter=2)
        assert not res.converged
        assert res.iterations == 2


class TestBiCGStab:
    def test_solves_nonsymmetric(self):
        A, b, x = nonsym_system()
        res = bicgstab(A, b, tol=1e-12, maxiter=2000)
        assert res.converged
        assert np.allclose(res.x, x, atol=1e-6)

    def test_preconditioned(self):
        A, b, x = nonsym_system(seed=5)
        res = bicgstab(A, b, M=JacobiPreconditioner(A), tol=1e-12)
        assert res.converged
        assert np.allclose(res.x, x, atol=1e-6)

    def test_zero_rhs_is_converged_not_a_breakdown(self):
        """Zero RHS, zero guess: the residual is exactly 0 (the step-0
        y-momentum solve of the lid-driven cavity).  That is a solved
        system, not the ``rho == 0`` breakdown it used to be reported as."""
        A, _, _ = nonsym_system()
        res = bicgstab(A, np.zeros(A.shape[0]))
        assert res.converged
        assert res.iterations == 0
        assert res.residual == 0.0
        assert np.array_equal(res.x, np.zeros(A.shape[0]))

    def test_exact_initial_guess(self):
        A, b, x = nonsym_system()
        res = bicgstab(A, b, x0=x.copy(), tol=1e-12)
        assert res.converged
        assert res.iterations == 0
        assert np.array_equal(res.x, x)


class CountingOperator:
    def __init__(self, A):
        self.A, self.calls = A, 0

    def matvec(self, x):
        self.calls += 1
        return self.A @ x


@pytest.mark.parametrize(
    "solve, system", [(cg, spd_system), (bicgstab, nonsym_system)]
)
def test_zero_guess_skips_the_initial_matvec(solve, system):
    """``x0=None`` starts from ``r = b`` without applying the operator to
    zeros: same iterates as an explicit zero guess (which keeps its
    mat-vec), one ``matvec`` call fewer."""
    A, b, _ = system()
    implicit, explicit = CountingOperator(A), CountingOperator(A)
    got = solve(implicit, b, tol=1e-12, maxiter=500)
    want = solve(explicit, b, x0=np.zeros_like(b), tol=1e-12, maxiter=500)
    assert got.converged and got.iterations == want.iterations > 0
    assert np.array_equal(got.x, want.x)
    assert got.residual == want.residual
    assert implicit.calls == explicit.calls - 1


class TestGMRES:
    def test_solves_nonsymmetric(self):
        A, b, x = nonsym_system(seed=2)
        res = gmres(A, b, tol=1e-12, restart=40, maxiter=4000)
        assert res.converged
        assert np.allclose(res.x, x, atol=1e-5)

    def test_restart_smaller_than_n(self):
        A, b, x = nonsym_system(seed=7)
        res = gmres(A, b, tol=1e-10, restart=10, maxiter=5000)
        assert res.converged

    def test_preconditioned(self):
        A, b, x = nonsym_system(seed=9)
        res = gmres(A, b, M=JacobiPreconditioner(A), tol=1e-11)
        assert res.converged
        assert np.allclose(res.x, x, atol=1e-5)


class TestPreconditioners:
    def test_jacobi_from_diagonal_vector(self):
        d = np.array([2.0, 4.0])
        M = JacobiPreconditioner(d)
        assert np.allclose(M(np.array([2.0, 4.0])), [1.0, 1.0])


class TestNewton:
    def test_scalar_like_system(self):
        # F(x) = x^3 - b componentwise.
        b = np.array([8.0, 27.0, 1.0])

        def F(x):
            return x**3 - b

        def J(x):
            return sp.diags(3 * x**2).tocsr()

        res = newton_solve(F, J, np.ones(3) * 2.0, tol=1e-12)
        assert res.converged
        assert np.allclose(res.x, [2.0, 3.0, 1.0], atol=1e-8)

    def test_coupled_nonlinear(self):
        # F1 = x0^2 + x1 - 3, F2 = x0 + x1^2 - 5 -> (x0, x1) ~ (1.09, 1.80)
        def F(x):
            return np.array([x[0] ** 2 + x[1] - 3, x[0] + x[1] ** 2 - 5])

        def J(x):
            return sp.csr_matrix(np.array([[2 * x[0], 1.0], [1.0, 2 * x[1]]]))

        res = newton_solve(F, J, np.array([1.0, 1.0]), tol=1e-12)
        assert res.converged
        assert np.allclose(F(res.x), 0.0, atol=1e-9)
        # A healthy solve factors the first iterate's Jacobian once and runs
        # every later iterate through LU-preconditioned BiCGStab.
        assert res.iterations > 1
        assert res.factorizations == 1 and res.fallbacks == 0
        assert 0 < res.linear_iterations <= 8 * (res.iterations - 1)

    def test_already_converged(self):
        def F(x):
            return x - 1.0

        def J(x):
            return sp.eye(2).tocsr()

        res = newton_solve(F, J, np.ones(2), tol=1e-10)
        assert res.converged
        assert res.iterations == 0
        assert res.factorizations == res.fallbacks == 0

    def test_tiny_diagonal_goes_through_fallback(self):
        """Static diagonal pivoting on [[1e-20, 1], [1, 1e-20]] returns a
        dx with relative residual ~0.45 (an exact zero would be pivoted
        away by SuperLU and prove nothing): the residual check must reject
        it and the partial-pivoting fallback must solve the step."""
        from repro import obs

        A = sp.csr_matrix(np.array([[1e-20, 1.0], [1.0, 1e-20]]))
        b = np.array([1.0, 2.0])
        obs.enable()
        try:
            res = newton_solve(
                lambda x: A @ x - b, lambda x: A, np.zeros(2), tol=1e-12
            )
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert res.converged and res.iterations == 1
        assert np.allclose(res.x, [2.0, 1.0], atol=1e-12)
        assert res.fallbacks >= 1
        assert res.factorizations == res.fallbacks + 1
        # the result's health fields are what the obs counters say
        assert counters["newton.iterations"] == res.iterations
        assert counters["newton.lu_factorizations"] == res.factorizations
        assert counters["newton.lu_fallbacks"] == res.fallbacks
        assert "newton.lu_solves" not in counters

    def test_refactors_when_old_factors_stop_preconditioning(self):
        """x^3 = b over four decades of b: between the first iterates the
        diagonal Jacobian 3x^2 changes by factors from ~0.5 to ~1e3, the
        old factors leave BiCGStab a spectrum it cannot finish in its few
        allowed iterations, so Newton factors the current Jacobian."""
        b = np.logspace(-2, 2, 40)

        def F(x):
            return x**3 - b

        def J(x):
            return sp.diags(3 * x**2).tocsr()

        res = newton_solve(F, J, np.ones(40), tol=1e-10, maxiter=40)
        assert res.converged
        assert np.allclose(res.x, np.cbrt(b), rtol=1e-8)
        assert res.factorizations >= 2 and res.fallbacks == 0
        assert res.factorizations < res.iterations  # reuse still happened

    def test_singular_jacobian_stops_without_a_step(self):
        """Pinned outcome for a Jacobian SuperLU finds exactly singular in
        both factorizations: converged=False at the iterate it was handed,
        counted as a fallback, no step taken."""

        def F(x):
            return np.array([x[0] + x[1] - 1.0, x[0] + x[1] - 3.0])

        def J(x):
            return sp.csr_matrix(np.ones((2, 2)))

        x0 = np.array([0.5, 0.25])
        res = newton_solve(F, J, x0, tol=1e-12)
        assert not res.converged
        assert res.iterations == 0
        assert np.array_equal(res.x, x0)
        assert res.residual == pytest.approx(np.linalg.norm(F(x0)))
        assert res.factorizations == 2 and res.fallbacks == 1


class TestFactors:
    """The holder of the Newton linear-solve state and its refresh rule."""

    def scripted(self, monkeypatch, script):
        """Run one linear solve per entry of ``script`` (the BiCGStab
        iteration count that solve would take with the held factors, read
        only when the holder goes to BiCGStab) and return ``F`` or the
        iteration count per solve."""
        A = sp.identity(3, format="csr")
        todo = list(script)

        def fake_bicgstab(J, b, *, M, tol, maxiter):
            its = todo[0]
            assert maxiter == newton._PRECOND_MAXITER
            return SolveResult(M(b), min(its, maxiter), 0.0, its <= maxiter)

        monkeypatch.setattr(newton, "bicgstab", fake_bicgstab)
        factors, seen = Factors(), []
        out = newton.NewtonResult(np.zeros(3), 0, 1.0, False)
        for _ in script:
            before = out.factorizations
            dx = factors.solve(A, -np.ones(3), np.sqrt(3.0), 1e-10, out)
            assert np.allclose(dx, 1.0)
            factored = out.factorizations > before
            seen.append("F" if factored else todo[0])
            if factored:
                assert (factors.spent, factors.solves, factors.last) == (0, 1, 0)
            todo.pop(0)
        assert out.fallbacks == 0
        return seen, out

    def test_no_refresh_while_counts_are_flat(self, monkeypatch):
        seen, out = self.scripted(monkeypatch, [0] + [3] * 60)
        assert seen == ["F"] + [3] * 60
        assert out.factorizations == 1 and out.linear_iterations == 180

    def test_refresh_on_the_first_uptick_once_amortised(self, monkeypatch):
        """An early up-tick (solve 3) is cheaper than a factorization spread
        over two solves and is ridden out; the same up-tick after nine flat
        solves is not, and the counts start over behind the new factors."""
        script = [0, 2, 3, 2, 2, 2, 2, 2, 2, 2, 3, 9, 2, 2]
        seen, out = self.scripted(monkeypatch, script)
        assert seen == ["F", 2, 3, 2, 2, 2, 2, 2, 2, 2, 3, "F", 2, 2]
        assert out.factorizations == 2

    def test_rule_is_the_documented_inequality(self):
        f = Factors()
        assert not f.stale()  # empty: solve() factors without asking
        f.spent, f.solves, f.last = 20, 10, 3
        assert f.last * f.solves >= newton.FACTOR_COST + f.spent and f.stale()
        f.last = 2
        assert not f.stale()

    def test_hard_stop_is_unchanged(self, monkeypatch):
        """More than ``_PRECOND_MAXITER`` iterations: the attempt is
        charged and the current Jacobian is factored in the same solve."""
        seen, out = self.scripted(monkeypatch, [0, 2, 99, 2])
        assert seen == ["F", 2, "F", 2]
        assert out.linear_iterations == 2 + newton._PRECOND_MAXITER + 2

    def test_held_factors_precondition_the_first_iterate(self):
        """A second solve through the same holder factors nothing and lands
        on the same root; without ``factors=`` each call factors once."""
        n = 30
        A = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n)).tocsr()
        b = np.linspace(1.0, 2.0, n)
        args = (lambda x: A @ x + 0.01 * x**3 - b,
                lambda x: (A + sp.diags(0.03 * x**2)).tocsr())
        factors = Factors()
        first = newton_solve(*args, np.full(n, 2.0), tol=1e-12, factors=factors)
        again = newton_solve(*args, np.full(n, 2.1), tol=1e-12, factors=factors)
        alone = newton_solve(*args, np.full(n, 2.1), tol=1e-12)
        assert first.factorizations == alone.factorizations == 1
        assert again.converged and again.factorizations == 0
        assert again.linear_iterations > alone.linear_iterations > 0
        assert again.iterations == alone.iterations
        assert np.allclose(again.x, alone.x, rtol=1e-12, atol=0)
        assert factors.solves == first.iterations + again.iterations

    def test_failed_solves_leave_the_holder_empty(self):
        factors = Factors()
        b = np.array([8.0, 27.0, 1.0])
        cubic = (lambda x: x**3 - b, lambda x: sp.diags(3 * x**2).tocsr())
        res = newton_solve(*cubic, np.full(3, 9.0), tol=1e-12, maxiter=2,
                           factors=factors)
        assert not res.converged and res.factorizations == 1
        assert factors.lu is None and factors.solves == 0

        assert newton_solve(*cubic, np.full(3, 2.0), tol=1e-12,
                            factors=factors).converged
        assert factors.lu is not None
        res = newton_solve(  # singular Jacobian behind healthy factors
            lambda x: np.array([x[0] + x[1] - 1.0, x[0] + x[1] - 3.0, x[2]]),
            lambda x: sp.csr_matrix(np.array(
                [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
            np.array([0.5, 0.25, 1.0]), tol=1e-12, factors=factors,
        )
        assert not res.converged and res.iterations == 0
        assert factors.lu is None and factors.solves == 0
