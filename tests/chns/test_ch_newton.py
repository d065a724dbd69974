"""The CH Newton iteration is Newton: the Jacobian ``CHSolver.operators``
assembles is the derivative of its residual, mobility block included, and
the iteration contracts quadratically.

The mobility ``sqrt(1 - phi^2)`` is clamped at ``_MOBILITY_FLOOR``; the
Jacobian carries the exact derivative of that clamped function, so the
finite-difference check runs on iterates whose ``phi`` crosses ±1."""

import numpy as np
import pytest

from repro.chns import forms
from repro.chns.ch_solver import CHSolver
from repro.scenarios import build, run_scenario

from .test_ch_linear_solve import hanging_2d, uniform_3d


def swirl(mesh):
    return np.stack([np.sin(np.pi * mesh.dof_xy()[:, (k + 1) % mesh.dim])
                     for k in range(mesh.dim)], axis=1)


@pytest.mark.parametrize("with_vel", [True, False])
@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("case", [hanging_2d, uniform_3d])
def test_jacobian_is_the_derivative_of_the_residual(case, theta, with_vel):
    """Central differences of the residual along random directions, at
    random iterates with ``phi`` on both sides of ±1: relative error under
    1e-9 here, 7e-3 to 4e-2 without the mobility block."""
    mesh, prm, phi, _ = case()
    vel = swirl(mesh) if with_vel else None
    ch = CHSolver(mesh, prm)
    mu = ch.initial_mu(phi)
    residual, jacobian, _ = ch.operators(phi, mu, vel, 1e-3, theta=theta)
    rng = np.random.default_rng(7)
    n, h = mesh.n_dofs, 1e-7
    for _ in range(2):
        x = np.concatenate([1.05 * phi + 0.02 * rng.standard_normal(n),
                            mu + 0.1 * rng.standard_normal(n)])
        phi_q = forms.field_at_quad(mesh, x[:n])
        assert np.any(np.abs(phi_q) > 1.0)  # on the mobility clamp
        assert np.any(np.abs(phi_q) < 1.0)
        d = rng.standard_normal(2 * n)
        Jd = jacobian(x) @ d
        fd = (residual(x + h * d) - residual(x - h * d)) / (2 * h)
        assert np.linalg.norm(fd - Jd) <= 1e-8 * np.linalg.norm(Jd)


def test_newton_contracts_quadratically_on_spinodal_steps(monkeypatch):
    """The first three steps of full ``spinodal_2d``: every full step is
    accepted, and each residual above round-off is below ``1e-2 ||F||^2``
    of the one before.  Without the mobility block step 0 read
    ``4.6e1 1.5e-3 1.6e-6 2.7e-10``: a fixed ~1e-3 contraction, 0.66 and 110
    times the previous square."""
    import repro.chns.ch_solver as ch_solver

    newton_solve, runs = ch_solver.newton_solve, []

    def recording(residual, jacobian, x0, **kwargs):
        norms = []

        def logged(x):
            F = residual(x)
            norms.append(float(np.linalg.norm(F)))
            return F

        res = newton_solve(logged, jacobian, x0, **kwargs)
        runs.append((res, norms))
        return res

    monkeypatch.setattr(ch_solver, "newton_solve", recording)
    cfg = build("spinodal_2d", quick=False)
    cfg.time.n_steps = 3
    assert run_scenario(cfg).status == "succeeded"
    assert len(runs) == 3
    second_order_pairs = 0
    for res, norms in runs:
        assert res.converged and res.line_search_trials == res.iterations
        assert len(norms) == res.iterations + 1
        for k in range(res.iterations):
            if norms[k + 1] > 1e-12:
                assert norms[k + 1] <= 1e-2 * norms[k] ** 2
                second_order_pairs += k > 0
    assert second_order_pairs >= 2
