"""The CH Newton linear solve (a static-pivot LU reused as the BiCGStab
preconditioner, within a solve and from step to step on one ``CHSolver``)
against an exact-LU Newton oracle: same iterates, same iteration count, one
factorization for a single solve and fewer than one per step over a run,
no fallback."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.chns.ch_solver import CHSolver
from repro.chns.initial_conditions import drop
from repro.chns.params import CHNSParams
from repro.la.newton import newton_solve
from repro.mesh.mesh import Mesh, mesh_from_field
from repro.octree.build import uniform_tree


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


@pytest.mark.parametrize("case", [hanging_2d, uniform_3d])
def test_ch_step_matches_exact_lu_oracle(case):
    mesh, prm, phi, vel = case()
    ch = CHSolver(mesh, prm)
    mu = ch.initial_mu(phi)
    dt = 1e-3
    x0 = np.concatenate([phi, mu])
    tol = 1e-9 * max(np.linalg.norm(x0), 1.0)  # CHSolver.solve's scaling

    residual, jacobian, _ = ch.operators(phi, mu, vel, dt)
    want = oracle_newton(residual, jacobian, x0, tol, 1e-8, 20)

    seen = []

    def recording_jacobian(x):
        seen.append(x.copy())
        return jacobian(x)

    res = newton_solve(
        residual, recording_jacobian, x0,
        tol=tol, rtol=1e-8, maxiter=20, linear_tol=1e-10,
    )
    got = seen + [res.x]
    assert res.converged
    assert res.iterations == len(want) - 1 > 1
    scale = np.linalg.norm(x0)
    for a, b in zip(got, want):
        assert np.linalg.norm(a - b) <= 1e-9 * scale
    assert res.factorizations == 1 and res.fallbacks == 0
    assert 0 < res.linear_iterations <= 8 * (res.iterations - 1)

    # The public entry point takes the same path to the same answer.
    out = ch.solve(phi, mu, vel, dt)
    assert out.newton.iterations == res.iterations
    assert out.newton.factorizations == 1 and out.newton.fallbacks == 0
    assert np.linalg.norm(
        np.concatenate([out.phi, out.mu]) - want[-1]
    ) <= 1e-9 * scale


@pytest.mark.parametrize("halve_dt_at", [None, 3])
@pytest.mark.parametrize("case", [hanging_2d, uniform_3d])
def test_factors_carried_across_steps_match_the_oracle(case, halve_dt_at):
    """Six steps through one ``CHSolver``: every step's iterates are those
    of an exact-LU Newton started from the same state, although most steps
    factor nothing - also when ``dt`` halves mid-run and the held factors
    are those of a different operator."""
    mesh, prm, phi, vel = case()
    ch = CHSolver(mesh, prm)
    mu = ch.initial_mu(phi)
    seen = []
    operators = ch.operators

    def recording_operators(*args, **kwargs):
        residual, jacobian, split = operators(*args, **kwargs)

        def recording_jacobian(x):
            seen.append(x.copy())
            return jacobian(x)

        return residual, recording_jacobian, split

    ch.operators = recording_operators
    factorizations = reusing_steps = 0
    for step in range(6):
        dt = 1e-3 if halve_dt_at is None or step < halve_dt_at else 5e-4
        x0 = np.concatenate([phi, mu])
        scale = np.linalg.norm(x0)
        residual, jacobian, _ = operators(phi, mu, vel, dt)
        want = oracle_newton(
            residual, jacobian, x0, 1e-9 * max(scale, 1.0), 1e-8, 20
        )
        del seen[:]
        out = ch.solve(phi, mu, vel, dt)
        got = seen + [out.newton.x]
        assert out.newton.converged
        assert out.newton.iterations == len(want) - 1 > 0
        for a, b in zip(got, want):
            assert np.linalg.norm(a - b) <= 1e-9 * scale
        assert out.newton.fallbacks == 0
        factorizations += out.newton.factorizations
        reusing_steps += out.newton.factorizations == 0
        phi, mu = out.phi, out.mu
    assert 1 <= factorizations < 6
    assert reusing_steps >= 3
