"""Preconditioner unit tests: every registered preconditioner must reduce
Krylov iterations against the unpreconditioned solve, on an SPD model
problem (CG) and a nonsymmetric one (GMRES), at matched tolerance."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.chns import forms
from repro.la.krylov import cg, gmres
from repro.la.precond import (
    JacobiPreconditioner,
    PCDPreconditioner,
    make_preconditioner,
)
from repro.mesh.mesh import Mesh
from repro.octree.build import uniform_tree

TOL = 1e-8


def _mesh(level=3):
    return Mesh.from_tree(uniform_tree(2, level))


def _spd_problem():
    """Variable-coefficient reaction-diffusion: K(c) + M, SPD, no nullspace."""
    mesh = _mesh()
    xq = forms.quad_xy(mesh)
    coeff = 1.0 + 10.0 * xq[..., 0] * xq[..., 1]
    A = (forms.stiffness(mesh, coeff) + forms.mass(mesh)).tocsr()
    rng = np.random.default_rng(7)
    b = rng.standard_normal(mesh.n_dofs)
    return mesh, A, b


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


def _precond(name, mesh, A):
    return make_preconditioner(name, A, mesh=mesh)


NAMES = ["jacobi", "pcd"]


@pytest.mark.parametrize("name", NAMES)
def test_reduces_cg_iterations_spd(name):
    mesh, A, b = _spd_problem()
    plain = cg(A, b, tol=TOL, maxiter=2000)
    assert plain.converged
    pre = cg(A, b, M=_precond(name, mesh, A), tol=TOL, maxiter=2000)
    assert pre.converged
    assert pre.iterations < plain.iterations
    assert np.allclose(A @ pre.x, b, atol=1e-6)


@pytest.mark.parametrize("name", NAMES)
def test_reduces_gmres_iterations_nonsym(name):
    mesh, A, b = _nonsym_problem()
    plain = gmres(A, b, tol=TOL, maxiter=2000)
    assert plain.converged
    if name == "pcd":
        # GMG needs the elliptic (symmetric) part only.
        ell = (0.1 * forms.stiffness(mesh) + forms.mass(mesh)).tocsr()
        M = PCDPreconditioner(mesh, ell)
    else:
        M = _precond(name, mesh, A)
    pre = gmres(A, b, M=M, tol=TOL, maxiter=2000)
    assert pre.converged
    assert pre.iterations < plain.iterations
    assert np.allclose(A @ pre.x, b, atol=1e-6)


def test_resolver_none_and_unknown():
    A = sp.eye(4, format="csr")
    assert make_preconditioner(None, A) is None
    assert make_preconditioner("none", A) is None
    with pytest.raises(ValueError):
        make_preconditioner("spam", A)
    with pytest.raises(ValueError):
        make_preconditioner("pcd", A)  # mesh required


def test_pcd_matches_jacobi_solution():
    """Preconditioning changes the path, not the answer."""
    mesh, A, b = _spd_problem()
    x_j = cg(A, b, M=JacobiPreconditioner(A), tol=1e-12, maxiter=4000).x
    x_p = cg(A, b, M=_precond("pcd", mesh, A), tol=1e-12, maxiter=4000).x
    assert np.allclose(x_j, x_p, atol=1e-8)
