"""Tests for multi-level inter-grid transfer (serial and parallel)."""

import numpy as np
import pytest

from repro.mesh.intergrid import (
    par_transfer_node_centered,
    transfer_cell_centered,
    transfer_node_centered,
)
from repro.mesh.mesh import Mesh, mesh_from_field
from repro.mpi.comm import run_spmd
from repro.octree.build import build_tree, uniform_tree
from repro.octree.partition import partition_endpoints, scatter_tree
from repro.octree.refine import refine
from repro.octree.tree import Octree


def random_mesh(seed, dim=2, max_level=4):
    rng = np.random.default_rng(seed)

    def pred(anchors, levels):
        return rng.random(len(levels)) < 0.45

    return Mesh.from_tree(build_tree(2, pred, max_level=max_level, min_level=1))


class TestNodeCentered:
    def test_identity_transfer(self):
        m = random_mesh(0)
        u = m.interpolate(lambda x: np.sin(3 * x[:, 0]) + x[:, 1] ** 2)
        v = transfer_node_centered(m, u, m)
        assert np.allclose(v, u, atol=1e-12)

    @pytest.mark.parametrize("jump", [1, 2, 3])
    def test_coarse_to_fine_multi_level_exact_for_linears(self, jump):
        """Coarse-to-fine interpolation across multi-level jumps is exact for
        affine fields (the transfer is the FE interpolant)."""
        coarse = Mesh.from_tree(uniform_tree(2, 2))
        fine = Mesh.from_tree(uniform_tree(2, 2 + jump))
        u = coarse.interpolate(lambda x: 3 * x[:, 0] - 2 * x[:, 1] + 0.1)
        v = transfer_node_centered(coarse, u, fine)
        expect = fine.interpolate(lambda x: 3 * x[:, 0] - 2 * x[:, 1] + 0.1)
        assert np.allclose(v, expect, atol=1e-12)

    def test_fine_to_coarse_injection(self):
        fine = Mesh.from_tree(uniform_tree(2, 4))
        coarse = Mesh.from_tree(uniform_tree(2, 2))
        u = fine.interpolate(lambda x: np.cos(x[:, 0] * 2) * x[:, 1])
        v = transfer_node_centered(fine, u, coarse)
        expect = coarse.interpolate(lambda x: np.cos(x[:, 0] * 2) * x[:, 1])
        # Injection at shared node locations is exact.
        assert np.allclose(v, expect, atol=1e-12)

    def test_adaptive_to_adaptive(self):
        m1 = random_mesh(1)
        m2 = random_mesh(2)
        u = m1.interpolate(lambda x: x[:, 0] * x[:, 1])
        v = transfer_node_centered(m1, u, m2)
        # Bilinear x*y is reproduced exactly within each source element only
        # if the target nodes coincide or the field is elementwise bilinear —
        # which x*y is on axis-aligned boxes.
        expect = m2.interpolate(lambda x: x[:, 0] * x[:, 1])
        assert np.allclose(v, expect, atol=1e-10)

    def test_roundtrip_coarse_fine_coarse(self):
        coarse = Mesh.from_tree(uniform_tree(2, 3))
        fine = Mesh.from_tree(uniform_tree(2, 5))
        u = coarse.interpolate(lambda x: np.sin(2 * x[:, 0]))
        back = transfer_node_centered(
            fine, transfer_node_centered(coarse, u, fine), coarse
        )
        assert np.allclose(back, u, atol=1e-12)

    def test_transfer_through_hanging_nodes(self):
        t = uniform_tree(2, 2)
        targets = t.levels.copy()
        targets[:4] = 4  # refine one corner region heavily
        m_adapt = Mesh.from_tree(refine(t, targets))
        m_uni = Mesh.from_tree(uniform_tree(2, 3))
        u = m_adapt.interpolate(lambda x: 2 * x[:, 0] + x[:, 1])
        v = transfer_node_centered(m_adapt, u, m_uni)
        assert np.allclose(
            v, m_uni.interpolate(lambda x: 2 * x[:, 0] + x[:, 1]), atol=1e-12
        )


def drop_mesh(dim, center, max_level):
    """Hanging-node mesh graded from level 2 to ``max_level`` at a sphere."""
    c = np.asarray(center)

    def phi(x):
        return np.tanh((np.linalg.norm(x - c, axis=1) - 0.25) / 0.02)

    return mesh_from_field(phi, dim, max_level=max_level, min_level=2,
                           threshold=0.95)


class TestBlockTransfer:
    @pytest.mark.parametrize("dim,max_level", [(2, 6), (3, 4)])
    def test_columns_equal_single_vector_calls(self, dim, max_level):
        coarse = Mesh.from_tree(uniform_tree(dim, 2))
        a = drop_mesh(dim, [0.4] * dim, max_level)
        b = drop_mesh(dim, [0.6] * dim, max_level)
        assert a.tree.levels.max() - coarse.tree.levels.max() >= 2
        assert a.nodes.is_hanging.any() and b.nodes.is_hanging.any()
        rng = np.random.default_rng(dim)
        # coarse -> fine, fine -> coarse, and both ways between two
        # differently graded meshes
        for src, dst in [(coarse, a), (a, coarse), (a, b), (b, a)]:
            u = rng.standard_normal((src.n_dofs, 5))
            block = transfer_node_centered(src, u, dst)
            assert block.shape == (dst.n_dofs, 5)
            for j in range(5):
                one = transfer_node_centered(src, u[:, j], dst)
                assert np.array_equal(block[:, j], one)


class TestCellCentered:
    def test_coarse_to_fine_copy(self):
        coarse = uniform_tree(2, 1)
        fine = uniform_tree(2, 3)
        vals = np.arange(len(coarse), dtype=np.float64)
        out = transfer_cell_centered(coarse, vals, fine)
        # Each fine cell inherits its ancestor's value.
        idx = coarse.locate_points(fine.centers().astype(np.int64))
        assert np.array_equal(out, vals[idx])

    def test_fine_to_coarse_average(self):
        fine = uniform_tree(2, 2)
        coarse = uniform_tree(2, 1)
        vals = np.ones(len(fine))
        out = transfer_cell_centered(fine, vals, coarse)
        assert np.allclose(out, 1.0)

    def test_volume_weighted_average_on_adaptive(self):
        rng = np.random.default_rng(3)

        def pred(anchors, levels):
            return rng.random(len(levels)) < 0.5

        fine = build_tree(2, pred, max_level=4, min_level=2)
        coarse = uniform_tree(2, 1)
        vals = rng.random(len(fine))
        out = transfer_cell_centered(fine, vals, coarse)
        # Conservation: total integral preserved by averaging.
        total_fine = float((vals * fine.volumes()).sum())
        total_coarse = float((out * coarse.volumes()).sum())
        assert np.isclose(total_fine, total_coarse, rtol=1e-12)

    def test_mixed_direction(self):
        rng = np.random.default_rng(4)

        def pred(anchors, levels):
            return rng.random(len(levels)) < 0.5

        a = build_tree(2, pred, max_level=3, min_level=1)
        b = uniform_tree(2, 2)
        vals = np.ones(len(a)) * 7.0
        out = transfer_cell_centered(a, vals, b)
        assert np.allclose(out, 7.0)  # constant preserved both directions


class TestParallelTransfer:
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4])
    def test_matches_serial(self, nprocs):
        old_mesh = random_mesh(5)
        new_mesh_global = random_mesh(6)
        u = old_mesh.interpolate(lambda x: np.sin(4 * x[:, 0]) * x[:, 1] + 1)
        serial = transfer_node_centered(old_mesh, u, new_mesh_global)

        old_parts = scatter_tree(old_mesh.tree, nprocs)
        new_parts = scatter_tree(new_mesh_global.tree, nprocs)
        corner_vals = old_mesh.elem_gather(u)
        bounds = np.linspace(0, old_mesh.n_elems, nprocs + 1).astype(int)

        def fn(comm):
            r = comm.rank
            old_local = old_parts[r]
            cv = corner_vals[bounds[r] : bounds[r + 1]]
            new_local = Mesh(new_parts[r], check_balance=False)
            old_eps = partition_endpoints(comm, old_local)
            new_eps = partition_endpoints(comm, new_parts[r])
            out = par_transfer_node_centered(
                comm, old_local, cv, new_local, old_eps, new_eps
            )
            # Return values keyed by node coordinate for global comparison.
            coords = new_local.nodes.coords[new_local.nodes.node_of_dof]
            return coords, out

        results = run_spmd(nprocs, fn)
        # Compare every local DOF against the serial transfer at the same
        # coordinate.
        global_coords = new_mesh_global.nodes.coords[
            new_mesh_global.nodes.node_of_dof
        ]
        lookup = {tuple(c): v for c, v in zip(global_coords.tolist(), serial)}
        for coords, vals in results:
            for c, v in zip(coords.tolist(), vals):
                key = tuple(c)
                if key in lookup:  # chunk-local hanging status may differ
                    assert abs(lookup[key] - v) < 1e-10

    def test_empty_old_rank(self):
        """Ranks owning no old elements still deliver (everything ships from
        the ranks that do)."""
        old_mesh = Mesh.from_tree(uniform_tree(2, 3))
        new_mesh_global = Mesh.from_tree(uniform_tree(2, 2))
        u = old_mesh.interpolate(lambda x: x[:, 0])
        old_parts = [old_mesh.tree, Octree.empty(2)]
        new_parts = scatter_tree(new_mesh_global.tree, 2)
        cv = old_mesh.elem_gather(u)
        cvs = [cv, cv[:0]]

        def fn(comm):
            r = comm.rank
            new_local = Mesh(new_parts[r], check_balance=False)
            old_eps = partition_endpoints(comm, old_parts[r])
            new_eps = partition_endpoints(comm, new_parts[r])
            out = par_transfer_node_centered(
                comm, old_parts[r], cvs[r], new_local, old_eps, new_eps
            )
            coords = new_local.nodes.coords[new_local.nodes.node_of_dof]
            return coords, out

        results = run_spmd(2, fn)
        scale = float(1 << 19)
        for coords, vals in results:
            assert np.allclose(vals, np.asarray(coords)[:, 0] / scale, atol=1e-12)
