"""``NSSolver.solve`` sums its operator at the element level and scatters
once; this file rebuilds the same linear systems the way the solver did
before — four ``assemble_matrix`` reference operators, two CSR sums, one
``elem_scatter`` per load term (``tests/oracles.py``) — and compares what
reaches the Krylov solver, on 2D and 3D hanging-node meshes with variable density
and viscosity, a non-zero diffusive flux and gravity on.
"""

import numpy as np
import pytest

from repro.chns import forms, ns_solver
from repro.chns.free_energy import mobility
from repro.chns.ns_solver import NSSolver
from repro.chns.params import CHNSParams
from repro.fem.operators import (
    convection_matrix,
    gradient_load_vector,
    load_vector,
    mass_matrix,
    stiffness_matrix,
)
from repro.la.krylov import SolveResult
from repro.la.precond import JacobiPreconditioner

from ..fem.test_apply_dirichlet import hanging_mesh
from ..oracles import apply_dirichlet, assemble_matrix, elem_scatter

DT = 0.01


def case(dim):
    mesh = hanging_mesh(dim)
    prm = CHNSParams(
        Re=40.0, We=2.0, Pe=50.0, Cn=0.08, Fr=1.5, rho_minus=0.3,
        eta_minus=0.4, gravity_dir=(0.3, -1.0, 0.5)[:dim],
    )
    rng = np.random.default_rng(10 + dim)
    n = mesh.n_dofs
    state = dict(
        phi=rng.uniform(-1.1, 1.1, n),  # past the clamp on purpose
        mu=rng.standard_normal(n),
        vel_n=rng.standard_normal((n, dim)),
        vel_nm1=rng.standard_normal((n, dim)),
        p_n=rng.standard_normal(n),
    )
    return mesh, prm, state, rng


def reference_systems(mesh, prm, phi, mu, vel_n, vel_nm1, p_n, forcing=None):
    """``A_imp`` and the ``dim`` right-hand sides, built operator by
    operator on the reference assembly path."""
    h, dim = mesh.elem_h(), mesh.dim
    phi_q = forms.field_at_quad(mesh, phi)
    rho_q, eta_q = prm.rho_clamped(phi_q), prm.eta_clamped(phi_q)
    vq = forms.field_at_quad(mesh, 2.0 * vel_n - vel_nm1)
    J_q = prm.J_coeff() * mobility(phi_q)[..., None] * forms.grad_at_quad(mesh, mu)
    M_rho = assemble_matrix(mesh, mass_matrix(h, dim, rho_q))
    C = assemble_matrix(mesh, convection_matrix(h, dim, rho_q[..., None] * vq))
    C_J = assemble_matrix(mesh, convection_matrix(h, dim, J_q / prm.Pe))
    K_eta = assemble_matrix(mesh, stiffness_matrix(h, dim, eta_q))
    A_imp = (M_rho / DT + 0.5 * (C + C_J) + (0.5 / prm.Re) * K_eta).tocsr()
    A_exp = (M_rho / DT - 0.5 * (C + C_J) - (0.5 / prm.Re) * K_eta).tocsr()
    grad_phi_q = forms.grad_at_quad(mesh, phi)
    grad_p_q = forms.grad_at_quad(mesh, p_n)
    rhs = np.empty((mesh.n_dofs, dim))
    for i in range(dim):
        b = A_exp @ vel_n[:, i]
        if forcing is not None:
            b = b + forcing[:, i]
        b -= (1.0 / prm.We) * elem_scatter(
            mesh, load_vector(h, dim, grad_p_q[..., i])
        )
        flux = grad_phi_q[..., i : i + 1] * grad_phi_q
        b += (prm.Cn / prm.We) * elem_scatter(
            mesh, gradient_load_vector(h, dim, flux)
        )
        b += (prm.gravity_coeff() * prm.gravity_dir[i]) * elem_scatter(
            mesh, load_vector(h, dim, rho_q)
        )
        rhs[:, i] = b
    return A_imp, rhs


@pytest.fixture
def captured(monkeypatch):
    """Record what ``NSSolver.solve`` hands to BiCGStab instead of solving."""
    seen = {"systems": []}

    def fake_bicgstab(A, b, *, x0, M, tol, maxiter):
        seen["systems"].append((A, b))
        return SolveResult(x0, 0, 0.0, True)

    monkeypatch.setattr(ns_solver, "bicgstab", fake_bicgstab)
    return seen


def assert_close_matrix(A, A_ref, rtol):
    scale = np.abs(A_ref.data).max()
    assert np.abs((A - A_ref).toarray()).max() <= rtol * scale


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("with_forcing", [False, True])
def test_fused_systems_match_four_operator_reference(captured, dim, with_forcing):
    mesh, prm, state, rng = case(dim)
    forcing = rng.standard_normal((mesh.n_dofs, dim)) if with_forcing else None
    A_ref, rhs_ref = reference_systems(mesh, prm, **state, forcing=forcing)

    NSSolver(mesh, prm).solve(*state.values(), DT, forcing=forcing)

    assert len(captured["systems"]) == dim
    for i, (A, b) in enumerate(captured["systems"]):
        assert_close_matrix(A, A_ref, 1e-13)
        assert np.abs(b - rhs_ref[:, i]).max() <= 1e-12 * np.abs(rhs_ref).max()
    # no masks: one shared system
    assert captured["systems"][0][0] is captured["systems"][1][0]


@pytest.mark.parametrize("dim", [2, 3])
def test_eliminated_systems_match_apply_dirichlet(captured, dim):
    """Per-component masks that differ: each component gets the reference
    elimination of the reference operator, lifted with its own values."""
    mesh, prm, state, rng = case(dim)
    masks = [mesh.boundary_dof_mask() for _ in range(dim)]
    masks[0] = masks[0] & ~mesh.face_dof_mask(0, 1)
    values = [rng.standard_normal(mesh.n_dofs) for _ in range(dim)]
    A_ref, rhs_ref = reference_systems(mesh, prm, **state)

    NSSolver(mesh, prm).solve(
        *state.values(), DT, dirichlet_masks=masks, dirichlet_values=values
    )

    for i, (A, b) in enumerate(captured["systems"]):
        A_bc, b_bc = apply_dirichlet(A_ref, rhs_ref[:, i], masks[i], values[i])
        assert_close_matrix(A, A_bc, 1e-13)
        assert np.array_equal(A.diagonal()[masks[i]], np.ones(masks[i].sum()))
        assert np.abs(b - b_bc).max() <= 1e-12 * np.abs(b_bc).max()


def test_int_masks_are_the_bool_masks(monkeypatch):
    """Masks are coerced once on entry: a list-of-int 0/1 mask gives the
    bits of its bool twin and, shared by both components, one system."""
    mesh, prm, state, _ = case(2)
    boundary = mesh.boundary_dof_mask()
    builds = []
    real_init = JacobiPreconditioner.__init__

    def counted_init(self, A):
        builds.append(1)
        real_init(self, A)

    monkeypatch.setattr(JacobiPreconditioner, "__init__", counted_init)
    as_bool = NSSolver(mesh, prm).solve(
        *state.values(), DT, dirichlet_masks=[boundary, boundary.copy()]
    )
    assert len(builds) == 1
    as_int = NSSolver(mesh, prm).solve(
        *state.values(), DT,
        dirichlet_masks=[boundary.astype(np.int64), boundary.astype(int).tolist()],
    )
    assert len(builds) == 2
    assert np.array_equal(as_int.vel_star, as_bool.vel_star)
    assert [s.iterations for s in as_int.solves] == [
        s.iterations for s in as_bool.solves
    ]
