"""Tests for the CHNS solver blocks and the two-block time stepper."""

import numpy as np
import pytest

from repro import obs
from repro.chns import forms
from repro.chns.ch_solver import CHSolver
from repro.chns.free_energy import (
    ginzburg_landau_energy,
    mobility,
    psi,
    psi_double_prime,
    psi_prime,
    total_mass,
)
from repro.chns.initial_conditions import (
    drop,
    jet_column,
    rising_bubble,
    tanh_profile,
    two_drops,
)
from repro.chns.ns_solver import NSSolver
from repro.chns.params import CHNSParams
from repro.chns.pp_solver import PPSolver
from repro.chns.timestepper import (
    CHNSTimeStepper,
    lid_driven_bc,
    no_slip_bc,
)
from repro.chns.vu_solver import VUSolver
from repro.la import factors
from repro.la.factors import PRECOND_MAXITER
from repro.mesh.mesh import Mesh
from repro.octree.build import uniform_tree

from ..la.test_solver_table import cavity_mesh, patch_table


@pytest.fixture(scope="module")
def mesh16():
    return Mesh.from_tree(uniform_tree(2, 4))


@pytest.fixture(scope="module")
def mesh8():
    return Mesh.from_tree(uniform_tree(2, 3))


class _CountingSplu:
    """Stands in for ``scipy.sparse.linalg`` in :mod:`repro.chns.vu_solver`:
    counts its ``splu`` calls in ``counts["splu"]`` and returns ``lu``
    instead of the factorization when one is given."""

    def __init__(self, counts, lu=None):
        self.counts, self.lu = counts, lu

    def splu(self, *args, **kwargs):
        import scipy.sparse.linalg as spla

        self.counts["splu"] += 1
        return spla.splu(*args, **kwargs) if self.lu is None else self.lu


def useless_flow_factors(monkeypatch):
    """NS and PP hold ``Factors`` that precondition nothing: every held
    solve fails its residual check and the block's own solve redoes it."""
    from repro.chns import ns_solver, pp_solver

    class Useless(factors.Factors):
        def __call__(self, r):
            return np.zeros_like(r)

    for module in (ns_solver, pp_solver):
        monkeypatch.setattr(module, "Factors", Useless)


class _BadLU:
    """Factors whose solves fail the residual check."""

    def __init__(self, fill):
        self.fill = fill

    def solve(self, B):
        return np.full(B.shape, self.fill)


class TestParams:
    def test_mixture_limits(self):
        p = CHNSParams(rho_plus=1.0, rho_minus=0.2, eta_plus=1.0, eta_minus=0.5)
        assert np.isclose(p.rho(1.0), 1.0)
        assert np.isclose(p.rho(-1.0), 0.2)
        assert np.isclose(p.eta(1.0), 1.0)
        assert np.isclose(p.eta(-1.0), 0.5)

    def test_clamping_protects_overshoot(self):
        p = CHNSParams(rho_minus=0.1)
        assert p.rho_clamped(np.array([-1.5]))[0] > 0
        assert p.rho_clamped(np.array([-1.5]))[0] == p.rho_clamped(np.array([-1.0]))[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            CHNSParams(Re=-1)
        with pytest.raises(ValueError):
            CHNSParams(Cn=0)

    def test_gravity_off_by_default(self):
        assert CHNSParams().gravity_coeff() == 0.0
        assert CHNSParams(Fr=2.0).gravity_coeff() == 0.5


class TestFreeEnergy:
    def test_psi_minima(self):
        assert psi(1.0) == 0.0
        assert psi(-1.0) == 0.0
        assert psi(0.0) == 0.25
        assert np.allclose(psi_prime(np.array([-1.0, 0.0, 1.0])), [0, 0, 0])

    def test_psi_derivative_consistency(self):
        x = np.linspace(-1.2, 1.2, 41)
        eps = 1e-6
        num = (psi(x + eps) - psi(x - eps)) / (2 * eps)
        assert np.allclose(num, psi_prime(x), atol=1e-8)
        num2 = (psi_prime(x + eps) - psi_prime(x - eps)) / (2 * eps)
        assert np.allclose(num2, psi_double_prime(x), atol=1e-6)

    def test_mobility_degenerate(self):
        assert mobility(0.0) == 1.0
        assert mobility(1.0) < 1e-3
        assert np.isfinite(mobility(1.5))  # clamped, not NaN

    def test_energy_of_uniform_phase_is_zero(self, mesh8):
        phi = np.ones(mesh8.n_dofs)
        assert ginzburg_landau_energy(mesh8, phi, 0.05) < 1e-14

    def test_total_mass_of_constant(self, mesh8):
        phi = np.full(mesh8.n_dofs, 0.3)
        assert np.isclose(total_mass(mesh8, phi), 0.3)


class TestInitialConditions:
    def test_drop_signs(self):
        x = np.array([[0.5, 0.5], [0.0, 0.0]])
        phi = drop(x, (0.5, 0.5), 0.2, 0.02)
        assert phi[0] < -0.9  # inside
        assert phi[1] > 0.9  # outside

    def test_two_drops_union(self):
        x = np.array([[0.3, 0.5], [0.7, 0.5], [0.5, 0.1]])
        phi = two_drops(x, (0.3, 0.5), 0.1, (0.7, 0.5), 0.1, 0.02)
        assert phi[0] < -0.9 and phi[1] < -0.9 and phi[2] > 0.9

    def test_jet_column(self):
        x = np.array([[0.1, 0.5], [0.1, 0.9], [0.9, 0.5]])
        phi = jet_column(x, half_width=0.08, length=0.45, Cn=0.02)
        assert phi[0] < -0.9  # inside jet near inlet
        assert phi[1] > 0.9  # above jet
        assert phi[2] > 0.9  # past the tip

    def test_tanh_profile_inside_sign(self):
        assert tanh_profile(np.array([-1.0]), 0.02, inside=-1.0)[0] < -0.99
        assert tanh_profile(np.array([-1.0]), 0.02, inside=+1.0)[0] > 0.99


class TestCHSolver:
    def test_mass_conserved_no_flow(self, mesh16):
        prm = CHNSParams(Pe=50.0, Cn=0.06)
        ch = CHSolver(mesh16, prm)
        phi = mesh16.interpolate(lambda x: drop(x, (0.5, 0.5), 0.25, prm.Cn))
        mu = ch.initial_mu(phi)
        m0 = total_mass(mesh16, phi)
        for _ in range(3):
            res = ch.solve(phi, mu, None, dt=5e-4)
            assert res.newton.converged
            phi, mu = res.phi, res.mu
        assert np.isclose(total_mass(mesh16, phi), m0, atol=1e-8)

    def test_energy_decays_no_flow(self, mesh16):
        prm = CHNSParams(Pe=50.0, Cn=0.06)
        ch = CHSolver(mesh16, prm)
        phi = mesh16.interpolate(lambda x: drop(x, (0.5, 0.5), 0.25, 0.03))
        mu = ch.initial_mu(phi)
        e_prev = ginzburg_landau_energy(mesh16, phi, prm.Cn)
        for _ in range(3):
            res = ch.solve(phi, mu, None, dt=5e-4)
            phi, mu = res.phi, res.mu
            e = ginzburg_landau_energy(mesh16, phi, prm.Cn)
            assert e <= e_prev + 1e-10
            e_prev = e

    def test_bounds_approximately_respected(self, mesh16):
        prm = CHNSParams(Pe=50.0, Cn=0.06)
        ch = CHSolver(mesh16, prm)
        phi = mesh16.interpolate(lambda x: drop(x, (0.5, 0.5), 0.25, prm.Cn))
        mu = ch.initial_mu(phi)
        for _ in range(3):
            res = ch.solve(phi, mu, None, dt=5e-4)
            phi, mu = res.phi, res.mu
        assert phi.min() > -1.1 and phi.max() < 1.1

    def test_equilibrium_is_stationary(self, mesh16):
        """A flat mixture at a well bottom stays put."""
        prm = CHNSParams(Pe=50.0, Cn=0.05)
        ch = CHSolver(mesh16, prm)
        phi = np.ones(mesh16.n_dofs)
        mu = ch.initial_mu(phi)
        res = ch.solve(phi, mu, None, dt=1e-3)
        assert np.allclose(res.phi, 1.0, atol=1e-8)

    def test_advection_moves_interface(self, mesh16):
        prm = CHNSParams(Pe=200.0, Cn=0.06)
        ch = CHSolver(mesh16, prm)
        phi = mesh16.interpolate(lambda x: drop(x, (0.4, 0.5), 0.2, prm.Cn))
        mu = ch.initial_mu(phi)
        vel = np.zeros((mesh16.n_dofs, 2))
        vel[:, 0] = 1.0  # uniform rightward flow
        com0 = _phase_com(mesh16, phi)
        for _ in range(4):
            res = ch.solve(phi, mu, vel, dt=2e-3)
            phi, mu = res.phi, res.mu
        com1 = _phase_com(mesh16, phi)
        assert com1[0] > com0[0] + 1e-3  # drop moved right
        assert abs(com1[1] - com0[1]) < 1e-3


def _phase_com(mesh, phi):
    """Center of mass of the (phi < 0) phase."""
    w = np.maximum(-phi, 0.0)
    xy = mesh.dof_xy()
    return (xy * w[:, None]).sum(axis=0) / w.sum()


class TestNSPPVU:
    def test_projection_reduces_divergence(self, mesh16):
        """PP+VU projects a non-solenoidal field toward divergence-free."""
        prm = CHNSParams(We=1.0)
        pp = PPSolver(mesh16, prm)
        vu = VUSolver(mesh16, prm)
        phi = np.ones(mesh16.n_dofs)
        xy = mesh16.dof_xy()
        vel = np.stack([xy[:, 0] ** 2, xy[:, 1]], axis=1)  # div = 2x + 1
        d0 = forms.divergence_l2(mesh16, vel)
        dt = 0.1
        p = pp.solve(phi, vel, dt).p
        out = vu.solve(phi, vel, p, dt)
        d1 = forms.divergence_l2(mesh16, out.vel)
        assert d1 < 0.5 * d0

    def test_vu_mass_matrix_reused(self, mesh16):
        prm = CHNSParams()
        vu = VUSolver(mesh16, prm)
        M1 = vu.M
        phi = np.ones(mesh16.n_dofs)
        vel = np.zeros((mesh16.n_dofs, 2))
        p = np.zeros(mesh16.n_dofs)
        vu.solve(phi, vel, p, 0.1)
        assert vu.M is M1  # assembled once, never rebuilt
        # one mass matrix per mesh: the CH block reads the same one
        assert CHSolver(mesh16, prm).M is M1 is forms.mesh_mass(mesh16)
        assert not M1.data.flags.writeable

    def test_vu_eliminates_once_per_mask(self, monkeypatch):
        """The mass matrix is constant: its Dirichlet elimination, Jacobi
        preconditioner and LU factors are built once per distinct mask, not
        per direction per step.  The first block is the CG solve, bit for
        bit; every later one is one direct solve per mask, equal to a fresh
        sparse direct solve to 1e-12."""
        import scipy.sparse.linalg as spla

        from repro.chns import vu_solver
        from repro.fem.plan import AssemblyPlan
        from repro.la.krylov import cg
        from repro.la.precond import JacobiPreconditioner

        from ..oracles import apply_dirichlet

        mesh = Mesh.from_tree(uniform_tree(2, 4))  # a memo of its own
        prm = CHNSParams(We=1.0, rho_minus=0.5)
        masks, values = lid_driven_bc(mesh)  # one mask, two sets of values
        xy = mesh.dof_xy()
        phi = np.tanh((xy[:, 0] - 0.5) / 0.1)
        p = np.sin(3 * xy[:, 0]) * xy[:, 1]
        builds = {"eliminate": 0, "jacobi": 0, "splu": 0}

        def counting(name, fn):
            def wrapper(*a, **k):
                builds[name] += 1
                return fn(*a, **k)
            return wrapper

        monkeypatch.setattr(
            AssemblyPlan, "eliminate",
            counting("eliminate", AssemblyPlan.eliminate))
        monkeypatch.setattr(
            vu_solver, "JacobiPreconditioner",
            counting("jacobi", JacobiPreconditioner))
        monkeypatch.setattr(vu_solver, "spla", _CountingSplu(builds))
        vu = VUSolver(mesh, prm)
        rng = np.random.default_rng(0)
        factorizations = []
        for block in range(3):
            vel = rng.standard_normal((mesh.n_dofs, 2))
            out = vu.solve(phi, vel, p, 0.05, dirichlet_masks=masks,
                           dirichlet_values=values)
            factorizations.append(out.factorizations)
            inv_rho_q = 1.0 / prm.rho_clamped(forms.field_at_quad(mesh, phi))
            gq = forms.grad_at_quad(mesh, p)
            for i in range(2):
                rhs = vu.M @ vel[:, i] - (0.05 / prm.We) * forms.source(
                    mesh, inv_rho_q * gq[..., i])
                A_i, rhs_i = apply_dirichlet(vu.M, rhs, masks[i], values[i])
                if block == 0:
                    ref = cg(A_i, rhs_i, x0=vel[:, i].copy(),
                             M=JacobiPreconditioner(A_i), tol=1e-10,
                             maxiter=3000)
                    assert np.array_equal(out.vel[:, i], ref.x)
                    assert out.solves[i].iterations == ref.iterations > 0
                else:
                    ref = spla.spsolve(A_i.tocsc(), rhs_i)
                    err = np.abs(out.vel[:, i] - ref).max()
                    assert err <= 1e-12 * np.abs(ref).max()
                    assert out.solves[i].iterations == 0
                    assert out.solves[i].converged
        assert factorizations == [0, 1, 0]
        assert builds == {"eliminate": 1, "jacobi": 1, "splu": 1}
        vu.solve(phi, vel, p, 0.05)  # unconstrained: one more system, once
        vu.solve(phi, vel, p, 0.05)
        assert builds == {"eliminate": 1, "jacobi": 1, "splu": 2}

    def test_ns_rest_stays_at_rest(self, mesh16):
        prm = CHNSParams()
        ns = NSSolver(mesh16, prm)
        phi = np.ones(mesh16.n_dofs)
        ch = CHSolver(mesh16, prm)
        mu = ch.initial_mu(phi)
        vel = np.zeros((mesh16.n_dofs, 2))
        p = np.zeros(mesh16.n_dofs)
        masks, values = no_slip_bc(mesh16)
        res = ns.solve(phi, mu, vel, vel, p, 0.01, dirichlet_masks=masks,
                       dirichlet_values=values)
        assert np.max(np.abs(res.vel_star)) < 1e-8

    def test_gravity_accelerates_flow(self, mesh16):
        prm = CHNSParams(Fr=0.5, rho_minus=0.99, eta_minus=1.0)
        ns = NSSolver(mesh16, prm)
        ch = CHSolver(mesh16, prm)
        phi = np.ones(mesh16.n_dofs)
        mu = ch.initial_mu(phi)
        vel = np.zeros((mesh16.n_dofs, 2))
        p = np.zeros(mesh16.n_dofs)
        res = ns.solve(phi, mu, vel, vel, p, 0.01)
        # Gravity points -y: interior velocity becomes negative in y.
        interior = ~mesh16.boundary_dof_mask()
        assert res.vel_star[interior, 1].mean() < -1e-6

    def test_pressure_mean_zero(self, mesh16):
        prm = CHNSParams()
        pp = PPSolver(mesh16, prm)
        phi = np.ones(mesh16.n_dofs)
        xy = mesh16.dof_xy()
        vel = np.stack([np.sin(xy[:, 0]), np.zeros(mesh16.n_dofs)], axis=1)
        res = pp.solve(phi, vel, 0.1)
        assert abs(res.p.mean()) < 1e-12


class TestVUFactors:
    """Which VU solves are direct: the mesh size and the solver's lifetime
    decide, and a direct solve that fails its residual check is redone by
    CG."""

    @staticmethod
    def _blocks(mesh, n, monkeypatch, lu=None):
        from repro.chns import vu_solver

        counts = {"splu": 0}
        monkeypatch.setattr(vu_solver, "spla", _CountingSplu(counts, lu))
        prm = CHNSParams(We=1.0, rho_minus=0.5)
        masks, values = no_slip_bc(mesh)
        xy = mesh.dof_xy()
        phi = np.tanh((xy[:, 0] - 0.5) / 0.1)
        p = np.sin(3 * xy[:, 0]) * xy[:, 1]
        vu = VUSolver(mesh, prm)
        rng = np.random.default_rng(1)
        outs = [
            vu.solve(phi, rng.standard_normal((mesh.n_dofs, 2)), p, 0.05,
                     dirichlet_masks=masks, dirichlet_values=values)
            for _ in range(n)
        ]
        return outs, counts["splu"]

    @staticmethod
    def _cap(mesh):
        return factors.SOLVERS["vu"]["lu"][mesh.dim]

    def test_mesh_above_the_crossover_never_factors(self, monkeypatch):
        mesh = Mesh.from_tree(uniform_tree(2, 7))
        assert mesh.n_dofs > self._cap(mesh)
        outs, splu = self._blocks(mesh, 3, monkeypatch)
        assert splu == 0
        assert all(o.factorizations == 0 for o in outs)
        assert all(s.iterations > 0 for o in outs for s in o.solves)

    def test_2d_mesh_within_the_2d_cap_factors_at_its_second_block(
        self, monkeypatch
    ):
        """2D uniform L6 (4,225 DOFs) is above the 3D cap and within the
        2D one."""
        mesh = Mesh.from_tree(uniform_tree(2, 6))
        assert factors.SOLVERS["vu"]["lu"][3] < mesh.n_dofs <= self._cap(mesh)
        outs, splu = self._blocks(mesh, 3, monkeypatch)
        assert splu == 1
        assert [o.factorizations for o in outs] == [0, 1, 0]
        assert [[s.iterations for s in o.solves] for o in outs][1:] == [
            [0, 0], [0, 0]]

    def test_mesh_below_the_crossover_factors_at_its_second_block(
        self, monkeypatch
    ):
        mesh = Mesh.from_tree(uniform_tree(2, 4))
        outs, splu = self._blocks(mesh, 3, monkeypatch)
        assert splu == 1  # both directions share the no-slip mask
        assert [o.factorizations for o in outs] == [0, 1, 0]
        assert [[s.iterations for s in o.solves] for o in outs][1:] == [
            [0, 0], [0, 0]]

    def test_drop_factors_restarts_the_first_block_rule(self, monkeypatch):
        mesh = Mesh.from_tree(uniform_tree(2, 4))
        prm = CHNSParams(We=1.0)
        vu = VUSolver(mesh, prm)
        xy = mesh.dof_xy()
        p = np.sin(3 * xy[:, 0]) * xy[:, 1]  # x0 = v* is not the solution
        vel = np.ones((mesh.n_dofs, 2))
        its = []
        for drop in (False, False, True, False):
            if drop:
                vu.drop_factors()
                (system,) = mesh.memo["mass_systems"].values()
                assert system.lu is None  # the factors went with the rule
            out = vu.solve(np.ones(mesh.n_dofs), vel, p, 0.1)
            its.append(out.solves[0].iterations)
        assert its[0] == its[2] > 0 and its[1] == its[3] == 0

    @pytest.mark.parametrize("fill", [0.0, np.nan])
    def test_failed_direct_solve_falls_back_to_cg(self, monkeypatch, fill):
        """Factors whose solve misses the CG tolerance (or is not finite):
        each direction is the CG solve, bit for bit the solve of a mesh
        that never factors."""
        mesh = Mesh.from_tree(uniform_tree(2, 4))
        outs, splu = self._blocks(mesh, 3, monkeypatch, _BadLU(fill))
        assert splu == 1 and [o.factorizations for o in outs] == [0, 1, 0]
        patch_table(monkeypatch, vu={"lu": 0})
        mesh = Mesh.from_tree(uniform_tree(2, 4))
        refs, splu = self._blocks(mesh, 3, monkeypatch)
        assert splu == 0
        for out, ref in zip(outs, refs):
            assert np.array_equal(out.vel, ref.vel)
            for s, r in zip(out.solves, ref.solves):
                assert s.iterations == r.iterations > 0 and s.converged


class TestHeldFlowFactors:
    """NS and PP precondition with held single-precision factors from a
    solver's second block on, on meshes within their row of the solver
    table; the first block, larger meshes and a held solve that fails run
    the Jacobi path, bit for bit."""

    @staticmethod
    def _blocks(mesh, n, *, drop_each=False, last_block=(), vu=False):
        """``n`` NS + PP blocks (NS + PP + VU with ``vu``) with inputs that
        depend on the block index only (the interface moves), never on
        earlier outputs."""
        prm = CHNSParams(Re=20.0, We=1.0, rho_minus=0.5, eta_minus=0.5)
        masks, values = no_slip_bc(mesh)
        xy = mesh.dof_xy()
        ns, pp = NSSolver(mesh, prm), PPSolver(mesh, prm)
        vus = VUSolver(mesh, prm)
        vel = np.stack([np.sin(np.pi * xy[:, 1]), np.cos(xy[:, 0])], axis=1)
        for i in range(2):
            vel[masks[i], i] = 0.0
        p = np.sin(3.0 * xy[:, 0]) * xy[:, 1]
        outs = []
        for k in range(n):
            if drop_each:
                ns.drop_factors()
                pp.drop_factors()
            phi = np.tanh((xy[:, 0] - 0.4 - 0.005 * k) / 0.1)
            ns_res = ns.solve(
                phi, np.zeros(mesh.n_dofs), vel, vel, p, 0.01,
                dirichlet_masks=masks, dirichlet_values=values,
                last_block=k in last_block,
            )
            pp_res = pp.solve(phi, ns_res.vel_star, 0.01, p0=p,
                              last_block=k in last_block)
            outs.append((ns_res, pp_res))
            if vu:
                outs[-1] += (vus.solve(
                    phi, ns_res.vel_star, pp_res.p, 0.01,
                    dirichlet_masks=masks, dirichlet_values=values,
                    last_block=k in last_block,
                ),)
        return outs

    @staticmethod
    def _same(a, b):
        (ns_a, pp_a), (ns_b, pp_b) = a, b
        return (
            np.array_equal(ns_a.vel_star, ns_b.vel_star)
            and np.array_equal(pp_a.p, pp_b.p)
            and [s.iterations for s in ns_a.solves]
            == [s.iterations for s in ns_b.solves]
            and pp_a.solve.iterations == pp_b.solve.iterations
        )

    @staticmethod
    def _cap(monkeypatch, n_dofs):
        patch_table(monkeypatch, **{blk: {"lu": n_dofs}
                                    for blk in ("ns", "pp", "vu")})

    def test_first_block_and_large_mesh_run_the_jacobi_path(
        self, mesh16, monkeypatch
    ):
        held = self._blocks(mesh16, 3)
        first_blocks = self._blocks(mesh16, 3, drop_each=True)
        self._cap(monkeypatch, mesh16.n_dofs - 1)  # the mesh is above it
        capped = self._blocks(mesh16, 3)
        assert all(self._same(a, b) for a, b in zip(capped, first_blocks))
        assert self._same(held[0], capped[0])
        for ns_res, pp_res in capped:
            assert ns_res.factorizations == pp_res.factorizations == 0
        # one factorization per holder (both components share the no-slip
        # mask), then reuse; a few iterations against Jacobi's many
        assert [(n.factorizations, p.factorizations) for n, p in held] == [
            (0, 0), (1, 1), (0, 0)]
        for (ns_h, pp_h), (ns_c, pp_c) in zip(held[1:], capped[1:]):
            assert ns_h.fallbacks == pp_h.fallbacks == 0
            assert all(s.converged and 0 < s.iterations <= PRECOND_MAXITER
                       for s in (*ns_h.solves, pp_h.solve))
            assert pp_h.solve.iterations < pp_c.solve.iterations
            scale = np.abs(ns_c.vel_star).max()
            assert np.abs(ns_h.vel_star - ns_c.vel_star).max() < 1e-7 * scale
            scale = np.abs(pp_c.p).max()
            assert np.abs(pp_h.p - pp_c.p).max() < 1e-7 * scale

    def test_failed_held_solve_falls_back_and_is_counted(
        self, mesh16, monkeypatch
    ):
        """Factors that precondition nothing: every held solve fails, the
        Jacobi path redoes it from the same start (bit for bit the capped
        solve), and each fallback is counted."""
        useless_flow_factors(monkeypatch)
        outs = self._blocks(mesh16, 3)
        self._cap(monkeypatch, 0)
        refs = self._blocks(mesh16, 3)
        for k, ((ns_o, pp_o), (ns_r, pp_r)) in enumerate(zip(outs, refs)):
            assert np.array_equal(ns_o.vel_star, ns_r.vel_star)
            assert np.array_equal(pp_o.p, pp_r.p)
            assert (ns_o.fallbacks, pp_o.fallbacks) == ((0, 0) if k == 0
                                                        else (2, 1))
            if k:
                for s, r in zip((*ns_o.solves, pp_o.solve),
                                (*ns_r.solves, pp_r.solve)):
                    assert s.converged and s.iterations > r.iterations
        assert sum(o[0].fallbacks for o in outs) == 4
        assert sum(o[1].fallbacks for o in outs) == 2
        assert sum(o[0].factorizations for o in outs) > 0
        assert sum(o[1].factorizations for o in outs) > 0

    def test_last_block_uses_held_factors_but_makes_none(self, monkeypatch):
        """NS, PP and VU alike.  VU's mass factors live in the mesh's
        ``memo``, so each run gets its own mesh."""
        def mesh():
            return Mesh.from_tree(uniform_tree(2, 4))

        outs = self._blocks(mesh(), 4, last_block=(1, 3), vu=True)
        self._cap(monkeypatch, 0)
        refs = self._blocks(mesh(), 4, vu=True)
        assert self._same(outs[1][:2], refs[1][:2])  # nothing held yet
        assert np.array_equal(outs[1][2].vel, refs[1][2].vel)
        assert [tuple(r.factorizations for r in o) for o in outs] == [
            (0, 0, 0), (0, 0, 0), (1, 1, 1), (0, 0, 0)]
        ns_last, pp_last, vu_last = outs[3]  # the factors of block 2, reused
        assert all(0 < s.iterations <= PRECOND_MAXITER
                   for s in (*ns_last.solves, pp_last.solve))
        assert all(s.converged and s.iterations == 0 for s in vu_last.solves)
        assert all(s.iterations > 0 for s in refs[3][2].solves)  # CG


def cap_pp(monkeypatch, n_dofs):
    patch_table(monkeypatch, pp={"lu": n_dofs})


class TestPPFactorCap:
    """PP has its own cap, per dimension: 2D meshes past the NS / VU cap
    and up to PP's 2D cap hold PP factors; 3D keeps the NS / VU cap."""

    @staticmethod
    def _blocks(mesh, n):
        """``n`` PP blocks whose inputs depend on the block index only."""
        prm = CHNSParams(We=1.0, rho_minus=0.5)
        xy = mesh.dof_xy()
        pp = PPSolver(mesh, prm)
        p = np.sin(3.0 * xy[:, 0]) * xy[:, 1]
        outs = []
        for k in range(n):
            phi = np.tanh((xy[:, 0] - 0.4 - 0.005 * k) / 0.1)
            vel = np.sin(np.pi * (1.0 + 0.01 * k) * xy)
            outs.append(pp.solve(phi, vel, 0.01, p0=p))
        return outs

    def test_2d_mesh_past_the_shared_cap_holds_pp_factors(self, monkeypatch):
        table = factors.SOLVERS
        mesh = cavity_mesh()
        assert table["ns"]["lu"] < mesh.n_dofs <= table["pp"]["lu"][2]
        assert mesh.n_dofs ** 0.5 >= table["pp"]["gmg"]
        held = self._blocks(mesh, 4)
        cap_pp(monkeypatch, 0)
        gmg = self._blocks(mesh, 4)
        # block 0 is the GMG-CG solve, bit for bit
        assert np.array_equal(held[0].p, gmg[0].p)
        assert held[0].solve.iterations == gmg[0].solve.iterations
        # one factorization at block 1, then reuse, never a fallback
        assert [o.factorizations for o in held] == [0, 1, 0, 0]
        assert [o.fallbacks for o in held] == [0, 0, 0, 0]
        for h, g in zip(held[1:], gmg[1:]):
            assert h.fallbacks == 0
            assert h.solve.converged
            assert 0 < h.solve.iterations <= PRECOND_MAXITER
            assert np.linalg.norm(h.p - g.p) <= 1e-7 * np.linalg.norm(g.p)

    def test_3d_mesh_past_the_shared_cap_stays_on_jacobi(self, monkeypatch):
        mesh = Mesh.from_tree(uniform_tree(3, 4))
        table = factors.SOLVERS
        assert table["pp"]["lu"][3] == table["ns"]["lu"] < mesh.n_dofs
        outs = self._blocks(mesh, 3)
        cap_pp(monkeypatch, 0)
        refs = self._blocks(mesh, 3)
        for o, r in zip(outs, refs):
            assert o.factorizations == o.fallbacks == 0
            assert np.array_equal(o.p, r.p)
            assert o.solve.iterations == r.solve.iterations > PRECOND_MAXITER


@pytest.mark.slow
def test_lid_driven_cavity_holds_one_pp_factorization(monkeypatch):
    """Four NS -> PP -> VU blocks of the lid-driven cavity on the
    ``cavity2d`` mesh through the public solvers: PP factors once (block 1)
    and never falls back; pressure and divergence match a run with the PP
    factors capped away (GMG-CG every block)."""

    def run():
        mesh = cavity_mesh()
        prm = CHNSParams(Re=100.0, We=1.0)
        ns, pp, vu = NSSolver(mesh, prm), PPSolver(mesh, prm), VUSolver(mesh, prm)
        masks, values = lid_driven_bc(mesh)
        bc = dict(dirichlet_masks=masks, dirichlet_values=values)
        n = mesh.n_dofs
        phi, mu, p = np.ones(n), np.zeros(n), np.zeros(n)
        vel = np.zeros((n, 2))
        for i in range(2):
            vel[masks[i], i] = values[i][masks[i]]
        vel_old, pp_outs = vel.copy(), []
        for _ in range(4):
            ns_res = ns.solve(phi, mu, vel, vel_old, p, 0.002, **bc)
            pp_res = pp.solve(phi, ns_res.vel_star, 0.002, p0=p)
            vu_res = vu.solve(phi, ns_res.vel_star, pp_res.p, 0.002, **bc)
            p, vel_old, vel = pp_res.p, vel, vu_res.vel
            pp_outs.append(pp_res)
        return p, forms.divergence_l2(mesh, vel), pp_outs

    p, div, outs = run()
    cap_pp(monkeypatch, 0)
    p_ref, div_ref, refs = run()
    assert [o.factorizations for o in outs] == [0, 1, 0, 0]
    assert all(o.fallbacks == 0 and o.solve.converged for o in outs)
    assert all(r.factorizations == 0 for r in refs)
    assert np.linalg.norm(p - p_ref) <= 1e-6 * np.linalg.norm(p_ref)
    assert abs(div - div_ref) <= 1e-6 * div_ref


class TestTimeStepper:
    @pytest.mark.parametrize("kw", [{"pp_mode": "incremental"},
                                    {"precond": "pcd"}])
    def test_unknown_option_value_rejected(self, mesh8, kw):
        with pytest.raises(ValueError, match="unknown"):
            CHNSTimeStepper(mesh8, CHNSParams(), **kw)
        CHNSTimeStepper(mesh8, CHNSParams(), precond="jacobi")

    def test_quiescent_drop_short_run(self, mesh8):
        """A drop at rest: mass conserved, phi bounded, no velocity blowup."""
        prm = CHNSParams(Re=10.0, We=1.0, Pe=50.0, Cn=0.1, rho_minus=0.5,
                         eta_minus=0.5)
        ts = CHNSTimeStepper(mesh8, prm, velocity_bc=no_slip_bc)
        ts.initialize(lambda x: drop(x, (0.5, 0.5), 0.25, prm.Cn))
        m0 = ts.diagnostics().mass
        for _ in range(3):
            ts.step(1e-3)
        d = ts.diagnostics()
        assert np.isclose(d.mass, m0, atol=1e-6)
        assert d.phi_min > -1.2 and d.phi_max < 1.2
        assert np.max(np.abs(ts.vel)) < 1.0

    def test_lid_driven_single_phase(self, mesh8):
        """Single-phase cavity: lid drives a vortex; divergence stays small."""
        prm = CHNSParams(Re=50.0, rho_minus=1.0, eta_minus=1.0, Pe=1e4, Cn=0.1)

        def regularized_lid(m):
            # Polynomial lid profile vanishing at the corners avoids the
            # classic corner-singularity divergence spike.
            masks, values = lid_driven_bc(m, 1.0)
            top = m.face_dof_mask(1, 1)
            x = m.dof_xy()[:, 0]
            values[0][top] = 16.0 * (x[top] * (1 - x[top])) ** 2
            return masks, values

        ts = CHNSTimeStepper(mesh8, prm, velocity_bc=regularized_lid)
        ts.initialize(lambda x: np.ones(len(x)))
        for _ in range(5):
            ts.step(2e-3)
        d = ts.diagnostics()
        interior = ~mesh8.boundary_dof_mask()
        # Momentum diffused into the cavity.
        assert np.max(np.abs(ts.vel[interior, 0])) > 1e-3
        assert d.div_l2 < 1.0

    def test_timers_populated(self, mesh8):
        """The per-block timers are the obs span tree: one ``chns.step``
        with each block once, and nothing else."""
        prm = CHNSParams(Pe=50.0, Cn=0.1, rho_minus=0.5, eta_minus=0.5)
        ts = CHNSTimeStepper(mesh8, prm, velocity_bc=no_slip_bc)
        ts.initialize(lambda x: drop(x, (0.5, 0.5), 0.25, prm.Cn))
        with obs.tracing():
            assert ts.step(1e-3) is None
            snap = obs.snapshot()
        (step,) = snap["spans"]
        assert (step["name"], step["count"]) == ("chns.step", 1)
        assert [(c["name"], c["count"]) for c in step["children"]] == [
            (f"chns.{b}", 1) for b in ("ch", "ns", "pp", "vu")
        ]

    def test_ch_only_step(self, mesh8):
        """Built without flow the stepper is the CH block alone: no flow
        solvers, no velocity or pressure, ``chns.step/chns.ch`` only."""
        prm = CHNSParams(Pe=50.0, Cn=0.1)
        ts = CHNSTimeStepper(mesh8, prm, flow=False)
        ts.initialize(lambda x: drop(x, (0.5, 0.5), 0.25, prm.Cn))
        m0 = ts.diagnostics().mass
        with obs.tracing():
            assert ts.step(1e-3) is None
            (step,) = obs.snapshot()["spans"]
        assert [(c["name"], c["count"]) for c in step["children"]] == [
            ("chns.ch", 1)
        ]
        assert ts.vel is None and ts.vel_old is None and ts.p is None
        assert not hasattr(ts, "ns") and sorted(ts.fields()) == ["mu", "phi"]
        assert ts.last_newton.converged
        assert ts.iteration_counts["newton"] == ts.last_newton.iterations > 0
        assert ts.iteration_counts["krylov"] == 0
        d = ts.diagnostics()
        assert np.isclose(d.mass, m0, atol=1e-10) and d.div_l2 == 0.0

    def test_fields_roundtrip_through_restore(self, mesh8):
        """``fields()`` is the flat checkpoint form; ``restore`` on a fresh
        stepper takes it back and rejects a vector of the wrong length."""
        prm = CHNSParams(Pe=50.0, Cn=0.1, rho_minus=0.5, eta_minus=0.5)
        ts = CHNSTimeStepper(mesh8, prm, velocity_bc=no_slip_bc)
        ts.initialize(lambda x: drop(x, (0.5, 0.5), 0.25, prm.Cn))
        ts.step(1e-3)
        fields = ts.fields()
        assert sorted(fields) == ["mu", "p", "phi", "v0", "v1", "vold0", "vold1"]
        ts2 = CHNSTimeStepper(mesh8, prm, velocity_bc=no_slip_bc)
        ts2.restore(fields, step_count=1, t=ts.t,
                    iteration_counts=ts.iteration_counts)
        for name in ("phi", "mu", "p", "vel", "vel_old"):
            assert np.array_equal(getattr(ts2, name), getattr(ts, name)), name
        assert (ts2.step_count, ts2.t) == (ts.step_count, ts.t) == (1, 1e-3)
        assert ts2.iteration_counts == ts.iteration_counts
        with pytest.raises(ValueError, match="v1 has shape"):
            ts2.restore({**fields, "v1": fields["v1"][:-1]}, step_count=1,
                        t=ts.t)

    def test_initialize_keeps_the_clock(self, mesh8):
        """Only ``step`` and ``restore`` move the clock: ``initialize``
        sets the fields and leaves ``t`` and ``step_count`` alone."""
        prm = CHNSParams(Pe=50.0, Cn=0.1)
        ts = CHNSTimeStepper(mesh8, prm, flow=False)
        phi0 = lambda x: drop(x, (0.5, 0.5), 0.25, prm.Cn)  # noqa: E731
        ts.initialize(phi0)
        assert (ts.step_count, ts.t) == (0, 0.0)
        ts.step(1e-3)
        ts.step(1e-3)
        ts.initialize(phi0)
        assert (ts.step_count, ts.t) == (2, 2e-3)

    @pytest.mark.parametrize("n_blocks", [0, 2])
    def test_n_blocks_other_than_one_rejected(self, mesh8, n_blocks):
        """``n_blocks`` is a vestigial key: a value other than 1 is an
        error naming the run ``n_blocks = k`` meant."""
        with pytest.raises(ValueError, match=(
                f"n_blocks={n_blocks} is gone: n_blocks=k was the run with "
                "n_blocks=1, dt / k and k times the steps and remesh_every")):
            CHNSTimeStepper(mesh8, CHNSParams(), n_blocks=n_blocks)
        CHNSTimeStepper(mesh8, CHNSParams(), n_blocks=1)
