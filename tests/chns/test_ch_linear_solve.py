"""The CH Newton linear solve (a single-precision static-pivot LU reused as
the BiCGStab preconditioner, within a solve and from step to step on one
``CHSolver``) against an exact-LU Newton oracle.

The solve is inexact by design: iterate ``k``'s BiCGStab stops at
``max(linear_tol, eta_k)``, the Eisenstat-Walker forcing term of
``repro.la.newton``.  So the contract is the oracle's Newton count, every
accepted step meeting its forcing term in the true residual, and the final
iterate within the Newton tolerance of the oracle's; one factorization for
a single solve and fewer than one per step over a run, no fallback."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.chns.ch_solver import CHSolver
from repro.chns.initial_conditions import drop
from repro.chns.params import CHNSParams
from repro.la import newton
from repro.la.newton import ETA_GAMMA, ETA_MAX, newton_solve
from repro.mesh.mesh import Mesh, mesh_from_field
from repro.octree.build import uniform_tree

LINEAR_TOL = 1e-10  # what CHSolver.solve passes


def oracle_newton(residual, jacobian, x0, tol, rtol, maxiter):
    """Reference Newton: partial-pivoting sparse LU at every iterate and
    ``newton_solve``'s line search.  Returns the list of iterates."""
    x = x0.copy()
    F = residual(x)
    norm_F = norm0 = float(np.linalg.norm(F))
    iterates = [x]
    for _ in range(maxiter):
        dx = spla.splu(jacobian(x).tocsc()).solve(-F)
        step = 1.0
        for _ in range(8):
            x_new = x + step * dx
            F_new = residual(x_new)
            norm_new = float(np.linalg.norm(F_new))
            if norm_new < (1.0 - 0.1 * step) * norm_F or step < 1e-3:
                break
            step *= 0.5
        x, F, norm_F = x_new, F_new, norm_new
        iterates.append(x)
        if norm_F < tol or norm_F < rtol * norm0:
            break
    return iterates


def hanging_2d():
    prm = CHNSParams(Cn=0.04, Pe=100.0)

    def phi0(x):
        return drop(x, (0.5, 0.45), 0.22, prm.Cn)

    mesh = mesh_from_field(phi0, 2, max_level=5, min_level=3, threshold=0.9)
    assert np.any(mesh.nodes.is_hanging)
    vel = np.stack(
        [np.sin(np.pi * mesh.dof_xy()[:, 1]), np.zeros(mesh.n_dofs)], axis=1
    )
    return mesh, prm, mesh.interpolate(phi0), vel


def uniform_3d():
    prm = CHNSParams(Cn=0.12, Pe=50.0)
    mesh = Mesh.from_tree(uniform_tree(3, 3))
    phi = mesh.interpolate(lambda x: drop(x, (0.5, 0.5, 0.5), 0.3, prm.Cn))
    return mesh, prm, phi, None


@pytest.fixture
def linear_steps(monkeypatch):
    """Every linear solve of ``newton_solve`` as ``(relative true residual,
    tolerance asked for, ||F||)``."""
    steps = []
    linear_step = newton._linear_step

    def recording(factors, J, F, norm_F, linear_tol, out):
        dx = linear_step(factors, J, F, norm_F, linear_tol, out)
        if dx is not None:
            rel = float(np.linalg.norm(J @ dx + F)) / norm_F
            steps.append((rel, linear_tol, norm_F))
        return dx

    monkeypatch.setattr(newton, "_linear_step", recording)
    return steps


def assert_forcing_met(steps):
    """Step 1 asks for ``ETA_MAX``, step ``k`` for the Eisenstat-Walker
    term of the last contraction, never below ``LINEAR_TOL``; each step
    meets what it asked for."""
    assert steps
    eta = ETA_MAX
    for k, (rel, asked, norm_F) in enumerate(steps):
        if k:
            eta = min(ETA_MAX, ETA_GAMMA * (norm_F / steps[k - 1][2]) ** 2)
        assert asked == max(LINEAR_TOL, eta)
        assert rel <= asked


@pytest.mark.parametrize("case", [hanging_2d, uniform_3d])
def test_ch_step_matches_exact_lu_oracle(case, linear_steps):
    mesh, prm, phi, vel = case()
    ch = CHSolver(mesh, prm)
    mu = ch.initial_mu(phi)
    dt = 1e-3
    x0 = np.concatenate([phi, mu])
    tol = 1e-9 * max(np.linalg.norm(x0), 1.0)  # CHSolver.solve's scaling

    residual, jacobian, _ = ch.operators(phi, mu, vel, dt)
    want = oracle_newton(residual, jacobian, x0, tol, 1e-8, 20)

    res = newton_solve(
        residual, jacobian, x0,
        tol=tol, rtol=1e-8, maxiter=20, linear_tol=LINEAR_TOL,
    )
    assert res.converged
    assert res.iterations == len(want) - 1 > 1
    assert len(linear_steps) == res.iterations
    assert_forcing_met(linear_steps)
    # Both stop at ||F|| < tol, so they are within 2 tol of each other.
    assert np.linalg.norm(res.x - want[-1]) <= 2 * tol
    assert res.factorizations == 1 and res.fallbacks == 0
    assert 0 < res.linear_iterations <= 8 * res.iterations

    # The public entry point takes the same path to the same answer.
    out = ch.solve(phi, mu, vel, dt)
    assert out.newton.iterations == res.iterations
    assert out.newton.factorizations == 1 and out.newton.fallbacks == 0
    assert np.array_equal(np.concatenate([out.phi, out.mu]), res.x)


@pytest.mark.parametrize("halve_dt_at", [None, 3])
@pytest.mark.parametrize("case", [hanging_2d, uniform_3d])
def test_factors_carried_across_steps_match_the_oracle(
    case, halve_dt_at, linear_steps
):
    """Six steps through one ``CHSolver``: every step takes the Newton count
    of an exact-LU Newton started from the same state and ends within its
    tolerance of it, although most steps factor nothing - also when ``dt``
    halves mid-run and the held factors are those of a different operator."""
    mesh, prm, phi, vel = case()
    ch = CHSolver(mesh, prm)
    mu = ch.initial_mu(phi)
    factorizations = reusing_steps = 0
    for step in range(6):
        dt = 1e-3 if halve_dt_at is None or step < halve_dt_at else 5e-4
        x0 = np.concatenate([phi, mu])
        tol = 1e-9 * max(np.linalg.norm(x0), 1.0)
        residual, jacobian, _ = ch.operators(phi, mu, vel, dt)
        want = oracle_newton(residual, jacobian, x0, tol, 1e-8, 20)
        del linear_steps[:]
        out = ch.solve(phi, mu, vel, dt)
        assert out.newton.converged
        assert out.newton.iterations == len(want) - 1 > 0
        assert_forcing_met(linear_steps)
        x = np.concatenate([out.phi, out.mu])
        assert np.linalg.norm(x - want[-1]) <= 2 * tol
        assert out.newton.fallbacks == 0
        factorizations += out.newton.factorizations
        reusing_steps += out.newton.factorizations == 0
        phi, mu = out.phi, out.mu
    assert 1 <= factorizations < 6
    assert reusing_steps >= 3


@pytest.mark.parametrize("case", [hanging_2d, uniform_3d])
def test_single_precision_factors_meet_the_forcing_in_float64(
    case, linear_steps
):
    """The held factors are float32; every step they precondition (all of
    them: no fallback) meets ``max(linear_tol, eta_k)`` in the true float64
    residual, over four steps through one ``CHSolver``."""
    mesh, prm, phi, vel = case()
    ch = CHSolver(mesh, prm)
    mu = ch.initial_mu(phi)
    for _ in range(4):
        del linear_steps[:]
        out = ch.solve(phi, mu, vel, 1e-3)
        assert out.newton.converged and out.newton.fallbacks == 0
        assert ch._factors.lu.L.dtype == np.float32
        assert_forcing_met(linear_steps)
        phi, mu = out.phi, out.mu
