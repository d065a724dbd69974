"""Tests for the distributed elemental kernels (ghost exchange, MATVEC,
distributed erosion/dilation) against their serial counterparts."""

import numpy as np
import pytest

from repro.core.erode_dilate import Stage, erode_dilate
from repro.core.threshold import threshold_octree
from repro.fem.operators import mass_matrix, stiffness_matrix
from repro.mesh.distributed import DistributedField
from repro.mesh.mesh import Mesh
from repro.mpi.comm import run_spmd
from repro.mpi.stats import CommStats
from repro.octree.build import uniform_tree

from ..oracles import apply_elemental


def drop_phi(x, center=(0.5, 0.5), radius=0.25, eps=0.02):
    d = np.linalg.norm(x - np.asarray(center), axis=-1) - radius
    return np.tanh(d / (np.sqrt(2) * eps))


@pytest.fixture(scope="module")
def mesh():
    return Mesh.from_tree(uniform_tree(2, 4))


class TestOwnership:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_every_node_owned_once(self, mesh, nprocs):
        def fn(comm):
            df = DistributedField(comm, mesh)
            return df.owned

        outs = run_spmd(nprocs, fn)
        allnodes = np.concatenate(outs)
        assert len(allnodes) == mesh.n_nodes
        assert len(np.unique(allnodes)) == mesh.n_nodes

    def test_elements_cover_all(self, mesh):
        def fn(comm):
            df = DistributedField(comm, mesh)
            return df.elem_hi - df.elem_lo

        outs = run_spmd(3, fn)
        assert sum(outs) == mesh.n_elems


class TestGhostExchange:
    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_ghost_read_matches_global(self, mesh, nprocs):
        rng = np.random.default_rng(0)
        global_vals = rng.standard_normal(mesh.n_nodes)

        def fn(comm):
            df = DistributedField(comm, mesh)
            full = df.ghost_read(df.from_global(global_vals))
            return np.allclose(full, global_vals[df.needed])

        assert all(run_spmd(nprocs, fn))

    def test_ghost_write_add(self, mesh):
        """Each rank adds 1 to every needed node; owners see the touch count."""

        def fn(comm):
            df = DistributedField(comm, mesh)
            ones = np.ones(len(df.needed))
            own0 = ones[np.searchsorted(df.needed, df.owned)]
            out = df.ghost_write(ones, own0, mode="add")
            return (df.owned, out)

        outs = run_spmd(3, fn)
        count = np.zeros(mesh.n_nodes)
        for ids, vals in outs:
            count[ids] = vals
        # A node is counted once per rank that needs it: >= 1 everywhere.
        assert count.min() >= 1
        assert count.max() <= 3


class TestDistributedMatvec:
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4])
    def test_matches_serial_on_uniform_mesh(self, mesh, nprocs):
        Ke = stiffness_matrix(mesh.elem_h(), 2) + mass_matrix(mesh.elem_h(), 2)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(mesh.n_dofs)  # uniform: nodes == dofs
        serial = apply_elemental(mesh, Ke, u)

        def fn(comm):
            df = DistributedField(comm, mesh)
            out = df.matvec(Ke[df.elem_lo : df.elem_hi], df.from_global(u))
            return (df.owned, out)

        outs = run_spmd(nprocs, fn)
        got = np.zeros(mesh.n_nodes)
        for ids, vals in outs:
            got[ids] = vals
        if nprocs == 1:  # the same elemental pass as the serial operator
            assert np.array_equal(got, serial)
        else:
            assert np.allclose(got, serial, atol=1e-12)

    @pytest.mark.parametrize("nprocs", [1, 3])
    def test_matrix_free_matches_batched(self, mesh, nprocs):
        """Per-element on-the-fly assembly == precomputed Ke batch, bitwise."""
        Ke = stiffness_matrix(mesh.elem_h(), 2)
        rng = np.random.default_rng(2)
        u = rng.standard_normal(mesh.n_nodes)

        def fn(comm):
            df = DistributedField(comm, mesh)
            batched = df.matvec(Ke[df.elem_lo : df.elem_hi], df.from_global(u))
            # Reference: each elemental stiffness assembled inside the
            # element loop, between the same ghost read and write.
            nv = df.ghost_read(df.from_global(u))
            h = mesh.elem_h()[df.elem_lo : df.elem_hi]
            acc = np.zeros(len(df.needed))
            for conn, he in zip(df.local_conn, h):
                acc[conn] += stiffness_matrix(he[None], 2)[0] @ nv[conn]
            mf = df.ghost_write(acc, acc[df.plan.own_pos], mode="add")
            return np.array_equal(batched, mf)

        assert all(run_spmd(nprocs, fn))

    def test_traffic_counted(self, mesh):
        stats = CommStats()
        Ke = mass_matrix(mesh.elem_h(), 2)
        u = np.ones(mesh.n_dofs)

        def fn(comm):
            df = DistributedField(comm, mesh)
            df.matvec(Ke[df.elem_lo : df.elem_hi], df.from_global(u))

        run_spmd(4, fn, stats=stats)
        snap = stats.snapshot()
        assert snap["messages"] > 0
        assert snap["bytes_sent"] > 0


class TestDistributedErodeDilate:
    @pytest.mark.parametrize("nprocs", [2, 4])
    @pytest.mark.parametrize("stage", [Stage.EROSION, Stage.DILATION])
    def test_matches_serial(self, mesh, nprocs, stage):
        phi = mesh.interpolate(lambda x: drop_phi(x))
        bw = threshold_octree(phi, -0.8)
        serial = erode_dilate(mesh, bw, stage, 2, 4)  # uniform: no waits

        def fn(comm):
            df = DistributedField(comm, mesh)
            owned = df.from_global(bw)  # uniform mesh: node vec == dof vec
            wait = np.zeros(df.elem_hi - df.elem_lo, dtype=np.int64)
            counters = np.zeros_like(wait)
            for _ in range(2):
                owned = df.erode_dilate_step(owned, stage.value, wait, counters)
            return (df.owned, owned)

        outs = run_spmd(nprocs, fn)
        got = np.zeros(mesh.n_nodes)
        for ids, vals in outs:
            got[ids] = vals
        assert np.array_equal(got, serial)

    def test_stale_ghosts_do_not_overwrite(self, mesh):
        """A rank that doesn't trigger must not push stale reads over a
        neighbor's fresh erosion (INSERT push-mask semantics)."""
        phi = mesh.interpolate(lambda x: drop_phi(x, center=(0.15, 0.15), radius=0.1))
        bw = threshold_octree(phi, -0.8)
        serial = erode_dilate(mesh, bw, Stage.EROSION, 1, 4)

        def fn(comm):
            df = DistributedField(comm, mesh)
            owned = df.from_global(bw)
            wait = np.zeros(df.elem_hi - df.elem_lo, dtype=np.int64)
            counters = np.zeros_like(wait)
            owned = df.erode_dilate_step(owned, -1.0, wait, counters)
            return (df.owned, owned)

        outs = run_spmd(4, fn)
        got = np.zeros(mesh.n_nodes)
        for ids, vals in outs:
            got[ids] = vals
        assert np.array_equal(got, serial)
