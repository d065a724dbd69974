"""3D exercises of the full stack: identifier, CH, and a CHNS step on octrees.

The paper's production runs are 3D; these tests keep the 3D code paths honest
at small scale (the 2D suite carries the detailed physics checks).
"""

import numpy as np
import pytest

from repro import obs
from repro.chns.ch_solver import CHSolver
from repro.chns.free_energy import total_mass
from repro.chns.initial_conditions import drop
from repro.chns.params import CHNSParams
from repro.chns.timestepper import CHNSTimeStepper, no_slip_bc
from repro.core.erode_dilate import Stage, erode_dilate
from repro.core.identifier import IdentifierConfig, identify_local_cahn
from repro.core.threshold import threshold_octree
from repro.mesh.intergrid import transfer_node_centered
from repro.mesh.mesh import Mesh, mesh_from_field
from repro.octree.build import uniform_tree


@pytest.fixture(scope="module")
def mesh3d():
    return Mesh.from_tree(uniform_tree(3, 3))  # 8^3 elements, 9^3 nodes


class TestIdentifier3D:
    def test_erosion_kills_small_ball(self, mesh3d):
        phi = mesh3d.interpolate(lambda x: drop(x, (0.5, 0.5, 0.5), 0.2, 0.05))
        bw = threshold_octree(phi, -0.8)
        assert np.any(bw > 0)
        out = erode_dilate(mesh3d, bw, Stage.EROSION, 2)
        assert np.all(out < 0)

    def test_identifier_flags_small_ball_only(self):
        def phi_f(x):
            # Wide separation: on the adaptive mesh the pure-phase bulk is
            # coarse (level 3), so each dilation sweep can advance a whole
            # coarse cell — the balls must sit farther apart than the
            # dilation reach.
            small = drop(x, (0.2, 0.2, 0.2), 0.14, 0.03)
            big = drop(x, (0.7, 0.7, 0.7), 0.26, 0.03)
            return np.minimum(small, big)

        m = mesh_from_field(phi_f, 3, max_level=5, min_level=3, threshold=0.9)
        res = identify_local_cahn(
            m,
            m.interpolate(phi_f),
            IdentifierConfig(delta=-0.8, n_erode=3, n_extra_dilate=2),
        )
        assert res.detected.sum() > 0
        centers = m.elem_centers()[res.detected]
        d_small = np.linalg.norm(centers - 0.2, axis=1)
        d_big = np.linalg.norm(centers - 0.7, axis=1)
        assert np.all(d_small < d_big)

    def test_3d_image_equivalence_single_step(self, mesh3d):
        """Mesh erosion == 3x3x3 box-stencil erosion on the node grid."""
        from repro.core import image

        phi = mesh3d.interpolate(lambda x: drop(x, (0.4, 0.5, 0.5), 0.3, 0.04))
        bw = threshold_octree(phi, -0.8)
        out = erode_dilate(mesh3d, bw, Stage.EROSION, 1)
        n = round(mesh3d.n_dofs ** (1 / 3))
        coords = mesh3d.nodes.coords[mesh3d.nodes.node_of_dof]
        step = coords.max() // (n - 1)
        grid = np.zeros((n, n, n), dtype=np.int8)
        idx = tuple((coords // step).T)
        grid[idx] = ((bw + 1) // 2).astype(np.int8)
        ref = image.erode(grid, 1)
        got = np.zeros_like(grid)
        got[idx] = ((out + 1) // 2).astype(np.int8)
        assert np.array_equal(got, ref)


class TestCH3D:
    def test_mass_conserved_and_bounded(self, mesh3d):
        prm = CHNSParams(Pe=50.0, Cn=0.12)
        ch = CHSolver(mesh3d, prm)
        phi = mesh3d.interpolate(lambda x: drop(x, (0.5, 0.5, 0.5), 0.3, prm.Cn))
        mu = ch.initial_mu(phi)
        m0 = total_mass(mesh3d, phi)
        res = ch.solve(phi, mu, None, dt=1e-3)
        assert res.newton.converged
        assert np.isclose(total_mass(mesh3d, res.phi), m0, atol=1e-8)
        assert res.phi.min() > -1.2 and res.phi.max() < 1.2


class TestCHNS3D:
    def test_single_timestep_runs(self):
        mesh = Mesh.from_tree(uniform_tree(3, 2))
        prm = CHNSParams(Re=10.0, Pe=50.0, Cn=0.2, rho_minus=0.5,
                         eta_minus=0.5, gravity_dir=(0.0, 0.0, -1.0))
        ts = CHNSTimeStepper(mesh, prm, velocity_bc=no_slip_bc)
        ts.initialize(lambda x: drop(x, (0.5, 0.5, 0.5), 0.3, prm.Cn))
        with obs.tracing():
            assert ts.step(1e-3) is None
            spans = obs.flatten_spans(obs.snapshot())
        d = ts.diagnostics()
        assert {p: n["count"] for p, n in spans.items()
                if p.count("/") <= 1} == {
            "chns.step": 1, "chns.step/chns.ch": 1, "chns.step/chns.ns": 1,
            "chns.step/chns.pp": 1, "chns.step/chns.vu": 1,
        }
        assert ts.vel.shape == (mesh.n_dofs, 3)
        assert np.all(np.isfinite(ts.vel))
        assert d.phi_min > -1.5 and d.phi_max < 1.5


class TestTransfer3D:
    def test_linears_exact_across_levels(self):
        c = Mesh.from_tree(uniform_tree(3, 1))
        f = Mesh.from_tree(uniform_tree(3, 3))
        u = c.interpolate(lambda x: x[:, 0] - 2 * x[:, 1] + 0.5 * x[:, 2])
        v = transfer_node_centered(c, u, f)
        expect = f.interpolate(lambda x: x[:, 0] - 2 * x[:, 1] + 0.5 * x[:, 2])
        assert np.allclose(v, expect, atol=1e-12)

    def test_adaptive_3d_transfer(self):
        def phi_f(x):
            return drop(x, (0.5, 0.5, 0.5), 0.3, 0.05)

        m1 = mesh_from_field(phi_f, 3, max_level=4, min_level=2, threshold=0.9)
        m2 = Mesh.from_tree(uniform_tree(3, 3))
        u = m1.interpolate(phi_f)
        v = transfer_node_centered(m1, u, m2)
        assert np.all(np.isfinite(v))
        assert v.min() >= -1.01 and v.max() <= 1.01
