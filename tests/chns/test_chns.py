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
    filament,
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
from repro.mesh.mesh import Mesh
from repro.octree.build import uniform_tree


@pytest.fixture(scope="module")
def mesh16():
    return Mesh.from_tree(uniform_tree(2, 4))


@pytest.fixture(scope="module")
def mesh8():
    return Mesh.from_tree(uniform_tree(2, 3))


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

    def test_filament_geometry(self):
        x = np.array([[0.5, 0.5], [0.5, 0.8], [0.05, 0.5]])
        phi = filament(x, 0.5, 0.05, 0.2, 0.8, 0.02)
        assert phi[0] < -0.9
        assert phi[1] > 0.9
        assert phi[2] > 0.9  # outside the span

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

    def test_vu_eliminates_once_per_mask(self, mesh16, monkeypatch):
        """The mass matrix is constant: its Dirichlet elimination and Jacobi
        preconditioner are built once per distinct mask, not per direction
        per step — and the velocities are those of the per-step build, bit
        for bit."""
        from repro.chns import vu_solver
        from repro.fem.assembly import apply_dirichlet, eliminate_dirichlet
        from repro.la.krylov import cg
        from repro.la.precond import JacobiPreconditioner

        prm = CHNSParams(We=1.0, rho_minus=0.5)
        masks, values = lid_driven_bc(mesh16)  # one mask, two sets of values
        xy = mesh16.dof_xy()
        phi = np.tanh((xy[:, 0] - 0.5) / 0.1)
        p = np.sin(3 * xy[:, 0]) * xy[:, 1]
        builds = {"eliminate": 0, "jacobi": 0}

        def counting(name, fn):
            def wrapper(*a, **k):
                builds[name] += 1
                return fn(*a, **k)
            return wrapper

        monkeypatch.setattr(
            vu_solver, "eliminate_dirichlet",
            counting("eliminate", eliminate_dirichlet))
        monkeypatch.setattr(
            vu_solver, "JacobiPreconditioner",
            counting("jacobi", JacobiPreconditioner))
        vu = VUSolver(mesh16, prm)
        rng = np.random.default_rng(0)
        for _ in range(3):
            vel = rng.standard_normal((mesh16.n_dofs, 2))
            out = vu.solve(phi, vel, p, 0.05, dirichlet_masks=masks,
                           dirichlet_values=values)
            inv_rho_q = 1.0 / prm.rho_clamped(forms.field_at_quad(mesh16, phi))
            gq = forms.grad_at_quad(mesh16, p)
            for i in range(2):
                rhs = vu.M @ vel[:, i] - (0.05 / prm.We) * forms.source(
                    mesh16, inv_rho_q * gq[..., i])
                A_i, rhs_i = apply_dirichlet(vu.M, rhs, masks[i], values[i])
                ref = cg(A_i, rhs_i, x0=vel[:, i].copy(),
                         M=JacobiPreconditioner(A_i), tol=1e-10, maxiter=3000)
                assert np.array_equal(out.vel[:, i], ref.x)
                assert out.solves[i].iterations == ref.iterations
        assert builds == {"eliminate": 1, "jacobi": 1}
        vu.solve(phi, vel, p, 0.05)  # unconstrained: one more system, once
        vu.solve(phi, vel, p, 0.05)
        assert builds == {"eliminate": 1, "jacobi": 2}

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
        with each block once per projection block, and nothing else."""
        prm = CHNSParams(Pe=50.0, Cn=0.1, rho_minus=0.5, eta_minus=0.5)
        for n_blocks in (1, 2):
            ts = CHNSTimeStepper(mesh8, prm, n_blocks=n_blocks,
                                 velocity_bc=no_slip_bc)
            ts.initialize(lambda x: drop(x, (0.5, 0.5), 0.25, prm.Cn))
            with obs.tracing():
                assert ts.step(1e-3) is None
                snap = obs.snapshot()
            (step,) = snap["spans"]
            assert (step["name"], step["count"]) == ("chns.step", 1)
            assert [(c["name"], c["count"]) for c in step["children"]] == [
                (f"chns.{b}", n_blocks) for b in ("ch", "ns", "pp", "vu")
            ]
            assert snap["counters"]["chns.steps"] == 1

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
        ts2.restore(fields, step_count=1,
                    iteration_counts=ts.iteration_counts)
        for name in ("phi", "mu", "p", "vel", "vel_old"):
            assert np.array_equal(getattr(ts2, name), getattr(ts, name)), name
        assert ts2.step_count == 1
        assert ts2.iteration_counts == ts.iteration_counts
        with pytest.raises(ValueError, match="v1 has shape"):
            ts2.restore({**fields, "v1": fields["v1"][:-1]}, step_count=1)

    def test_two_blocks_per_step(self, mesh8):
        prm = CHNSParams(Pe=50.0, Cn=0.1, rho_minus=0.5, eta_minus=0.5)
        ts = CHNSTimeStepper(mesh8, prm, n_blocks=2, velocity_bc=no_slip_bc)
        ts.initialize(lambda x: drop(x, (0.5, 0.5), 0.25, prm.Cn))
        ts.step(1e-3)
        assert ts.step_count == 1
