"""Preconditioner unit tests: each preconditioner must reduce Krylov
iterations against the unpreconditioned solve at matched tolerance - Jacobi
and the pressure-Poisson V-cycle on the PP operator (CG), Jacobi on a
nonsymmetric one (GMRES)."""

import numpy as np
import pytest

from repro.chns import forms
from repro.la.krylov import cg, gmres
from repro.la.precond import JacobiPreconditioner, make_preconditioner
from repro.mesh.mesh import Mesh
from repro.octree.build import uniform_tree

TOL = 1e-8


def _mesh(level=3):
    return Mesh.from_tree(uniform_tree(2, level))


def _pp_problem():
    """What ``PPSolver`` solves: ``K_{1/rho}`` with a density contrast -
    symmetric, positive semi-definite, the constants its nullspace - and a
    consistent (mean-zero) right-hand side."""
    mesh = _mesh()
    xq = forms.quad_xy(mesh)
    rho = np.where(np.linalg.norm(xq - 0.5, axis=-1) < 0.25, 10.0, 1.0)
    K = forms.stiffness(mesh, 1.0 / rho).tocsr()
    rng = np.random.default_rng(7)
    b = rng.standard_normal(mesh.n_dofs)
    return mesh, K, b - b.mean()


def _nonsym_problem():
    """Advection-diffusion: stiffness + convection, nonsymmetric."""
    mesh = _mesh()
    vel = np.tile(np.array([1.0, 0.5]), (mesh.n_dofs, 1))
    A = (
        0.1 * forms.stiffness(mesh)
        + forms.convection(mesh, vel)
        + forms.mass(mesh)
    ).tocsr()
    rng = np.random.default_rng(11)
    b = rng.standard_normal(mesh.n_dofs)
    return mesh, A, b


PRECONDS = {
    "jacobi": lambda mesh, A: JacobiPreconditioner(A),
    "gmg": make_preconditioner,
}


@pytest.mark.parametrize("name", sorted(PRECONDS))
def test_reduces_cg_iterations_spd(name):
    mesh, K, b = _pp_problem()
    plain = cg(K, b, tol=TOL, maxiter=2000)
    assert plain.converged
    pre = cg(K, b, M=PRECONDS[name](mesh, K), tol=TOL, maxiter=2000)
    assert pre.converged
    assert pre.iterations < plain.iterations
    assert np.allclose(K @ pre.x, b, atol=1e-6)


@pytest.mark.parametrize("name", ["jacobi"])
def test_reduces_gmres_iterations_nonsym(name):
    mesh, A, b = _nonsym_problem()
    plain = gmres(A, b, tol=TOL, maxiter=2000)
    assert plain.converged
    pre = gmres(A, b, M=PRECONDS[name](mesh, A), tol=TOL, maxiter=2000)
    assert pre.converged
    assert pre.iterations < plain.iterations
    assert np.allclose(A @ pre.x, b, atol=1e-6)


def test_gmg_matches_jacobi_solution():
    """Preconditioning changes the path, not the answer (up to the
    constant the PP solve projects out)."""
    mesh, K, b = _pp_problem()
    x_j = cg(K, b, M=JacobiPreconditioner(K), tol=1e-12, maxiter=4000).x
    x_p = cg(K, b, M=make_preconditioner(mesh, K), tol=1e-12, maxiter=4000).x
    assert np.allclose(x_j - x_j.mean(), x_p - x_p.mean(), atol=1e-8)
