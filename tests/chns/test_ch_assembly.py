"""The CH Jacobian is four ``data`` vectors on the mesh's one assembly-plan
pattern, placed by the plan's 2x2 block layout.

Pinned here, no wall clock: the planned fill is ``sp.bmat`` of the four plan
matrices bit for bit; ``CHSolver.operators`` gives the residual and Jacobian
of the four-block construction it replaced (kept below as the oracle) -
bitwise at ``theta = 1``, to round-off at ``theta = 0.5``; and a CH solve
stacks and sums no CSR matrices once the layout exists.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.chns import forms
from repro.chns.ch_solver import CHSolver
from repro.chns.free_energy import (
    _MOBILITY_FLOOR, mobility, psi_double_prime, psi_prime,
)
from repro.fem.plan import get_plan

from .test_ch_linear_solve import hanging_2d, uniform_3d

CASES = [hanging_2d, uniform_3d]
DT = 1e-3


def four_block_operators(ch, phi_n, mu_n, vel, dt, *, theta=1.0,
                         source_phi=None):
    """The CH residual and Jacobian as CSR sums and one ``sp.bmat``, with
    a separate backward-Euler formula: the construction ``CHSolver`` used
    before the planned fill, with the mobility block ``Dm`` in ``J11``."""
    mesh, prm = ch.mesh, ch.params
    n = mesh.n_dofs
    M, K = ch.M, ch.K
    Cv = forms.convection(mesh, vel) if vel is not None else sp.csr_matrix((n, n))
    mob_coeff = 1.0 / (prm.Pe * prm.Cn)
    Cn2 = prm.Cn**2

    def Km_of(phi):
        return forms.stiffness(mesh, mobility(forms.field_at_quad(mesh, phi)))

    def Dm_of(phi, mu):
        """``d(Km mu)/dphi``: ``∫ m'(phi) N_j grad N_i · grad mu``, with
        ``m'`` spelled from ``phi`` alone (0 on the mobility clamp)."""
        phi_q = forms.field_at_quad(mesh, phi)
        off_clamp = 1.0 - phi_q**2 > _MOBILITY_FLOOR
        with np.errstate(invalid="ignore"):  # sqrt of < 0 on the clamp
            dm = np.where(off_clamp, -phi_q / np.sqrt(1.0 - phi_q**2), 0.0)
        flux = dm[..., None] * forms.grad_at_quad(mesh, mu)
        return get_plan(mesh).assemble(
            np.swapaxes(forms.convection_ke(mesh, flux), 1, 2)
        )

    if theta != 1.0:
        expl = (1.0 - theta) * (Cv @ phi_n + mob_coeff * (Km_of(phi_n) @ mu_n))

    def residual(x):
        phi, mu = x[:n], x[n:]
        Km = Km_of(phi)
        if theta == 1.0:
            r_phi = M @ ((phi - phi_n) / dt) + Cv @ phi + mob_coeff * (Km @ mu)
        else:
            r_phi = (M @ ((phi - phi_n) / dt)
                     + theta * (Cv @ phi + mob_coeff * (Km @ mu)) + expl)
        if source_phi is not None:
            r_phi = r_phi - source_phi
        psi_q = psi_prime(forms.field_at_quad(mesh, phi))
        r_mu = M @ mu - forms.source(mesh, psi_q) - Cn2 * (K @ phi)
        return np.concatenate([r_phi, r_mu])

    def jacobian(x):
        phi, mu = x[:n], x[n:]
        Km, Dm = Km_of(phi), Dm_of(phi, mu)
        if theta == 1.0:
            J11 = M / dt + Cv + mob_coeff * Dm
            J12 = mob_coeff * Km
        else:
            J11 = M / dt + theta * Cv + (theta * mob_coeff) * Dm
            J12 = (theta * mob_coeff) * Km
        psi2_q = psi_double_prime(forms.field_at_quad(mesh, phi))
        J21 = -forms.mass(mesh, psi2_q) - Cn2 * K
        return sp.bmat([[J11, J12], [J21, M]], format="csr")

    return residual, jacobian


def assert_same_csr(A, B):
    assert A.shape == B.shape
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.data, B.data)


@pytest.mark.parametrize("case", CASES)
def test_block_fill_is_bmat_of_the_plan_matrices(case):
    mesh = case()[0]
    plan = get_plan(mesh)
    rng = np.random.default_rng(1)
    data = [rng.standard_normal(plan.nnz) for _ in range(4)]
    n = mesh.n_dofs
    blocks = [sp.csr_matrix((d, plan.indices, plan.indptr), shape=(n, n))
              for d in data]
    J = plan.block_2x2(*data)
    assert_same_csr(J, sp.bmat([blocks[:2], blocks[2:]], format="csr"))
    assert J.has_canonical_format
    # the layout is built once per plan: a second fill reuses its arrays
    again = plan.block_2x2(*data)
    assert again.indices is J.indices and again.indptr is J.indptr


def iterate(phi, mu, seed=2):
    """A Newton-like iterate away from the old state ``(phi, mu)``."""
    rng = np.random.default_rng(seed)
    n = len(phi)
    return np.concatenate([phi + 0.05 * rng.standard_normal(n),
                           mu + 0.05 * rng.standard_normal(n)])


@pytest.mark.parametrize("with_vel", [True, False])
@pytest.mark.parametrize("case", CASES)
def test_backward_euler_is_bitwise_the_four_block_construction(case, with_vel):
    mesh, prm, phi, vel = case()
    if with_vel and vel is None:
        vel = np.stack([np.sin(np.pi * mesh.dof_xy()[:, k])
                        for k in range(mesh.dim)], axis=1)
    if not with_vel:
        vel = None
    ch = CHSolver(mesh, prm)
    mu = ch.initial_mu(phi)
    residual, jacobian, _ = ch.operators(phi, mu, vel, DT)
    ref_residual, ref_jacobian = four_block_operators(ch, phi, mu, vel, DT)
    for x in (np.concatenate([phi, mu]), iterate(phi, mu)):
        assert np.array_equal(residual(x), ref_residual(x))
        assert_same_csr(jacobian(x), ref_jacobian(x))


@pytest.mark.parametrize("case", CASES)
def test_crank_nicolson_matches_the_four_block_construction(case):
    mesh, prm, phi, vel = case()
    ch = CHSolver(mesh, prm)
    mu = ch.initial_mu(phi)
    rng = np.random.default_rng(3)
    source_phi = rng.standard_normal(mesh.n_dofs)
    residual, jacobian, _ = ch.operators(phi, mu, vel, DT, theta=0.5,
                                         source_phi=source_phi)
    ref_residual, ref_jacobian = four_block_operators(
        ch, phi, mu, vel, DT, theta=0.5, source_phi=source_phi)
    for x in (np.concatenate([phi, mu]), iterate(phi, mu)):
        r, r_ref = residual(x), ref_residual(x)
        assert np.abs(r - r_ref).max() <= 1e-14 * np.abs(r_ref).max()
        J, J_ref = jacobian(x), ref_jacobian(x)
        assert_same_csr(J, J_ref)  # one formula, so the bits agree here too


@pytest.mark.parametrize("case", CASES)
def test_ch_solve_never_stacks_or_sums_csr_matrices(monkeypatch, case):
    """Once the mesh's block layout exists (its one ``sp.bmat``, at the
    first Jacobian), a CH solve runs with ``sp.bmat`` and CSR ``+`` / ``-``
    patched to raise."""
    mesh, prm, phi, vel = case()
    ch = CHSolver(mesh, prm)
    mu = ch.initial_mu(phi)
    ch.operators(phi, mu, vel, DT)[1](np.concatenate([phi, mu]))

    def boom(*args, **kwargs):
        raise AssertionError("scipy.sparse stack or sum on the CH hot path")

    monkeypatch.setattr(sp, "bmat", boom)
    for op in ("__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(sp.csr_matrix, op, boom)
    with pytest.raises(AssertionError, match="stack or sum"):
        ch.M + ch.M  # the guard is armed for the matrices the plan hands out
    res = ch.solve(phi, mu, vel, DT)
    assert res.newton.converged and res.newton.iterations > 1
