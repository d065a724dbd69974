"""End-to-end integration tests: the full pipeline a production run uses.

Each test chains several subsystems the way the paper's application does —
mesh construction, CHNS stepping, identifier-driven AMR, checkpointing,
distributed kernels, and VTK output — asserting cross-module invariants
rather than per-module behavior.
"""

import numpy as np
import pytest

from repro import obs
from repro.amr.checkpoint import load_checkpoint, save_checkpoint
from repro.amr.driver import RemeshConfig, level_fractions, remesh
from repro.chns.free_energy import total_mass
from repro.chns.initial_conditions import drop, jet_column
from repro.chns.params import CHNSParams
from repro.chns.timestepper import CHNSTimeStepper, jet_inflow_bc, no_slip_bc
from repro.core.identifier import IdentifierConfig
from repro.core.multilevel import CahnStage, identify_multilevel_cahn
from repro.io.vtk import read_vtk_summary, write_vtk
from repro.mesh.intergrid import transfer_node_centered
from repro.mesh.mesh import Mesh, mesh_from_field
from repro.mpi.comm import run_spmd
from repro.octree.balance import is_balanced
from repro.octree.build import uniform_tree
from repro.octree.parbalance import par_balance
from repro.octree.parcoarsen import par_coarsen
from repro.octree.partition import repartition, scatter_tree
from repro.octree.tree import Octree


class TestFullAMRLoop:
    @pytest.mark.slow
    def test_chns_with_amr_and_vtk(self, tmp_path):
        """Bubble rise with periodic remeshing, checkpoint, and VTK dump."""
        prm = CHNSParams(Re=40.0, We=2.0, Pe=100.0, Cn=0.08, Fr=1.0,
                         rho_minus=0.4, eta_minus=0.5)

        def phi0(x):
            return drop(x, (0.5, 0.4), 0.2, prm.Cn)

        mesh = mesh_from_field(phi0, 2, max_level=5, min_level=3,
                               threshold=0.95)
        ts = CHNSTimeStepper(
            mesh, prm,
            velocity_bc=no_slip_bc,
            remesh_config=RemeshConfig(coarse_level=3, interface_level=5,
                                       feature_level=5),
            remesh_every=2,
        )
        ts.initialize(phi0)
        m0 = ts.diagnostics().mass
        with obs.tracing():
            for _ in range(5):
                ts.step(1e-3)
            spans = obs.flatten_spans(obs.snapshot())
        d = ts.diagnostics()
        # Mass survives remeshing-induced transfers to interpolation accuracy.
        assert abs(d.mass - m0) < 5e-3
        assert is_balanced(ts.mesh.tree)
        # remesh_every=2: steps 2 and 4 remesh, every step runs every block
        assert spans["chns.step"]["count"] == 5
        assert spans["chns.step/chns.remesh"]["count"] == 2
        for block in ("ch", "ns", "pp", "vu"):
            assert spans[f"chns.step/chns.{block}"]["count"] == 5

        # Checkpoint and VTK round-trip from the evolved state.
        p = str(tmp_path / "state")
        save_checkpoint(p, ts.mesh.tree, {"phi": ts.phi, "p": ts.p}, nprocs=1)
        tree, fields, _ = load_checkpoint(p)
        assert tree == ts.mesh.tree
        v = write_vtk(str(tmp_path / "snap"), ts.mesh,
                      point_data={"phi": ts.phi},
                      cell_data={"level": ts.mesh.tree.levels.astype(float)})
        s = read_vtk_summary(v)
        assert s["cells"] == ts.mesh.n_elems

    def test_jet_with_multilevel_cahn_remesh(self):
        """Jet + multi-level granulometry feeding target levels directly."""
        CN = 0.03

        def phi0(x):
            return jet_column(x, half_width=0.1, length=0.4, Cn=CN,
                              perturb_amp=0.2)

        mesh = mesh_from_field(phi0, 2, max_level=6, min_level=3,
                               threshold=0.95)
        phi = mesh.interpolate(phi0)
        res = identify_multilevel_cahn(
            mesh, phi,
            [CahnStage(cn=0.4, n_erode=2), CahnStage(cn=0.7, n_erode=5)],
            delta=-0.8,
        )
        assert res.elem_cn.min() >= 0.4
        # Feed detections into a remesh as feature flags.
        cfg = RemeshConfig(
            coarse_level=3, interface_level=6, feature_level=7,
            identifier=IdentifierConfig(delta=-0.8, n_erode=2,
                                        n_extra_dilate=3),
        )
        new_mesh, new_fields, info = remesh(mesh, {"phi": phi}, cfg)
        assert is_balanced(new_mesh.tree)
        fr = level_fractions(new_mesh)
        assert np.isclose(fr["element_fraction"].sum(), 1.0)
        # Transferred phi stays in physical bounds.
        assert new_fields["phi"].min() > -1.2
        assert new_fields["phi"].max() < 1.2


class TestDistributedPipeline:
    def test_coarsen_balance_repartition_chain(self):
        """Distributed remeshing chain: par_coarsen -> par_balance ->
        repartition, ending load-balanced, 2:1, and globally correct."""
        base = Mesh.from_tree(uniform_tree(2, 5)).tree
        votes = np.maximum(base.levels - 2, 2)
        nprocs = 4
        parts = scatter_tree(base, nprocs)
        bounds = np.linspace(0, len(base), nprocs + 1).astype(int)
        vparts = [votes[bounds[r] : bounds[r + 1]] for r in range(nprocs)]

        def fn(comm):
            local = par_coarsen(comm, parts[comm.rank], vparts[comm.rank])
            local = par_balance(comm, local)
            local = repartition(comm, local)
            return local

        outs = run_spmd(nprocs, fn)
        merged = Octree(
            np.concatenate([o.anchors for o in outs]),
            np.concatenate([o.levels for o in outs]),
            2,
        )
        assert merged.is_linear()
        assert merged.coverage() == pytest.approx(1.0)
        assert is_balanced(merged)
        sizes = [len(o) for o in outs]
        assert max(sizes) - min(sizes) <= 1

    def test_remesh_then_transfer_on_ranks(self):
        """Old and new grids partitioned differently; parallel transfer
        agrees with the serial one."""
        from repro.mesh.intergrid import par_transfer_node_centered
        from repro.octree.partition import partition_endpoints

        def phi0(x):
            return drop(x, (0.5, 0.5), 0.3, 0.05)

        old_mesh = mesh_from_field(phi0, 2, max_level=5, min_level=3,
                                   threshold=0.95)
        new_mesh = Mesh.from_tree(uniform_tree(2, 4))
        u = old_mesh.interpolate(phi0)
        serial = transfer_node_centered(old_mesh, u, new_mesh)
        corner_vals = old_mesh.elem_gather(u)

        nprocs = 3
        old_parts = scatter_tree(old_mesh.tree, nprocs)
        new_parts = scatter_tree(new_mesh.tree, nprocs)
        ob = np.linspace(0, old_mesh.n_elems, nprocs + 1).astype(int)

        def fn(comm):
            r = comm.rank
            new_local = Mesh(new_parts[r], check_balance=False)
            out = par_transfer_node_centered(
                comm,
                old_parts[r],
                corner_vals[ob[r] : ob[r + 1]],
                new_local,
                partition_endpoints(comm, old_parts[r]),
                partition_endpoints(comm, new_parts[r]),
            )
            coords = new_local.nodes.coords[new_local.nodes.node_of_dof]
            return coords, out

        results = run_spmd(nprocs, fn)
        global_coords = new_mesh.nodes.coords[new_mesh.nodes.node_of_dof]
        lookup = {tuple(c): v for c, v in zip(global_coords.tolist(), serial)}
        checked = 0
        for coords, vals in results:
            for c, v in zip(coords.tolist(), vals):
                if tuple(c) in lookup:
                    assert abs(lookup[tuple(c)] - v) < 1e-10
                    checked += 1
        assert checked > 0


class TestConservationAcrossSubsystems:
    def test_mass_through_remesh_cycles(self):
        """Phase mass drift across repeated identify->remesh->transfer
        cycles stays at interpolation accuracy."""
        prm = CHNSParams(Pe=30.0, Cn=0.06)

        def phi0(x):
            return drop(x, (0.5, 0.5), 0.28, prm.Cn)

        mesh = mesh_from_field(phi0, 2, max_level=5, min_level=3,
                               threshold=0.95)
        phi = mesh.interpolate(phi0)
        m0 = total_mass(mesh, phi)
        cfg = RemeshConfig(coarse_level=3, interface_level=5, feature_level=5)
        drifts = []
        for _ in range(4):
            mesh, fields, _ = remesh(mesh, {"phi": phi}, cfg)
            phi = fields["phi"]
            drifts.append(abs(total_mass(mesh, phi) - m0))
        assert max(drifts) < 2e-3
        # Once the mesh is stationary the transfer is exact: no compounding.
        assert drifts[-1] <= drifts[0] + 1e-12
