"""Tests for the AMR remeshing driver and checkpoint/restart."""

import numpy as np
import pytest

from repro import obs
from repro.amr.checkpoint import (
    load_checkpoint,
    rebalance_all,
    restart_distributed,
    save_checkpoint,
)
from repro.amr.driver import (
    RemeshConfig,
    compute_target_levels,
    level_fractions,
    remesh,
    uniform_equivalent_points,
)
from repro.core.identifier import IdentifierConfig
from repro.mesh.intergrid import transfer_node_centered
from repro.mesh.mesh import Mesh, mesh_from_field
from repro.mpi.comm import run_spmd
from repro.octree.build import uniform_tree
from repro.octree.tree import Octree


def drop_phi(x, center, radius, eps=0.01):
    d = np.linalg.norm(x - np.asarray(center), axis=-1) - radius
    return np.tanh(d / (np.sqrt(2) * eps))


class TestTargets:
    def test_interface_marked(self):
        m = Mesh.from_tree(uniform_tree(2, 4))
        phi = m.interpolate(lambda x: drop_phi(x, (0.5, 0.5), 0.25, eps=0.02))
        cfg = RemeshConfig(coarse_level=3, interface_level=5, feature_level=6)
        t = compute_target_levels(m, phi, cfg)
        assert set(np.unique(t)) <= {3, 5}
        centers = m.elem_centers()
        near = np.abs(np.linalg.norm(centers - 0.5, axis=1) - 0.25) < 0.04
        assert np.all(t[near] == 5)

    def test_bad_level_ordering_rejected(self):
        with pytest.raises(ValueError):
            RemeshConfig(coarse_level=5, interface_level=4, feature_level=6)


class TestRemesh:
    def test_refines_interface_and_coarsens_bulk(self):
        m = Mesh.from_tree(uniform_tree(2, 4))
        phi_f = lambda x: drop_phi(x, (0.5, 0.5), 0.25, eps=0.02)
        phi = m.interpolate(phi_f)
        cfg = RemeshConfig(coarse_level=2, interface_level=6, feature_level=6)
        new_mesh, new_fields, info = remesh(m, {"phi": phi}, cfg)
        assert new_mesh.tree.levels.max() == 6
        # Bulk coarsens below the interface level (2:1 grading limits how
        # far: the level-6 band ripples outward one level per cell ring).
        assert new_mesh.tree.levels.min() <= 4
        assert new_mesh.n_elems < (1 << 6) ** 2 // 2  # far below uniform-6
        assert info.n_refined > 0
        assert info.n_coarsened > 0
        # Transferred phi approximates the analytic profile; the bound is
        # the coarse source mesh's own interpolation error of the tanh
        # profile (h = 1/16 against a band of width ~0.05).
        err = new_fields["phi"] - new_mesh.interpolate(phi_f)
        assert np.max(np.abs(err)) < 0.6
        assert np.mean(np.abs(err)) < 0.15

    def test_remesh_preserves_linears_exactly(self):
        m = Mesh.from_tree(uniform_tree(2, 4))
        phi = m.interpolate(lambda x: drop_phi(x, (0.5, 0.5), 0.25, eps=0.02))
        lin = m.interpolate(lambda x: x[:, 0] - 2 * x[:, 1])
        cfg = RemeshConfig(coarse_level=2, interface_level=5, feature_level=5)
        new_mesh, new_fields, _ = remesh(m, {"phi": phi, "lin": lin}, cfg)
        expect = new_mesh.interpolate(lambda x: x[:, 0] - 2 * x[:, 1])
        assert np.allclose(new_fields["lin"], expect, atol=1e-12)

    def test_feature_level_applied_with_identifier(self):
        """A small drop earns feature_level resolution; the big interface
        stays at interface_level (the paper's 'local Cahn' refinement)."""

        def phi_f(x):
            return np.minimum(
                drop_phi(x, (0.25, 0.25), 0.05, eps=0.008),
                drop_phi(x, (0.7, 0.7), 0.22, eps=0.008),
            )

        m = mesh_from_field(phi_f, 2, max_level=7, min_level=4, threshold=0.9)
        phi = m.interpolate(phi_f)
        # Sweeps are counted at feature_level 8, where a level-7 element
        # moves every second sweep: 10 / 6 sweeps are 5 / 3 level-7 cells.
        cfg = RemeshConfig(
            coarse_level=4,
            interface_level=7,
            feature_level=8,
            identifier=IdentifierConfig(delta=-0.8, n_erode=10,
                                        n_extra_dilate=6),
        )
        new_mesh, _, info = remesh(m, {"phi": phi}, cfg)
        assert info.identifier is not None
        assert info.identifier.detected.sum() > 0
        assert new_mesh.tree.levels.max() == 8
        # Level-8 elements cluster near the small drop.
        fine = new_mesh.tree.levels == 8
        centers = new_mesh.elem_centers()[fine]
        assert np.all(np.linalg.norm(centers - 0.25, axis=1) < 0.15)

    def test_stationary_remesh_is_stable(self):
        """Remeshing twice with the same field changes nothing the second
        time (fixed point)."""
        m = Mesh.from_tree(uniform_tree(2, 4))
        phi_f = lambda x: drop_phi(x, (0.5, 0.5), 0.25, eps=0.02)
        cfg = RemeshConfig(coarse_level=2, interface_level=5, feature_level=5)
        m1, f1, _ = remesh(m, {"phi": m.interpolate(phi_f)}, cfg)
        m2, f2, _ = remesh(m1, f1, cfg)
        m3, f3, _ = remesh(m2, f2, cfg)
        assert m2.tree == m3.tree

    def test_unchanged_cycles_are_reported(self):
        m = Mesh.from_tree(uniform_tree(2, 4))
        phi_f = lambda x: drop_phi(x, (0.5, 0.5), 0.25, eps=0.02)
        cfg = RemeshConfig(coarse_level=2, interface_level=5, feature_level=5)
        with obs.tracing():
            m1, f1, info1 = remesh(m, {"phi": m.interpolate(phi_f)}, cfg)
            m2, f2, info2 = remesh(m1, f1, cfg)
            m3, _, info3 = remesh(m2, f2, cfg)
            spans = obs.flatten_spans(obs.snapshot())
        assert not info1.unchanged and m1.tree != m.tree
        assert info2.unchanged == (m2.tree == m1.tree)
        assert info3.unchanged and m3.tree == m2.tree
        unchanged = sum(i.unchanged for i in (info1, info2, info3))
        assert unchanged == 1 + info2.unchanged
        assert spans["remesh"]["count"] == 3
        # an unchanged cycle keeps its mesh: it transfers nothing
        assert spans["remesh/remesh.transfer"]["count"] == 3 - unchanged

    @pytest.mark.parametrize("dim,n_fields", [(2, 7), (3, 11)])
    def test_transfer_locates_once_for_every_field(self, monkeypatch, dim,
                                                   n_fields):
        m = Mesh.from_tree(uniform_tree(dim, 3))
        phi = m.interpolate(lambda x: drop_phi(x, [0.5] * dim, 0.25, eps=0.03))
        rng = np.random.default_rng(dim)
        fields = {"phi": phi}
        fields.update(
            (f"f{i}", rng.standard_normal(m.n_dofs)) for i in range(n_fields - 1)
        )
        calls = []
        locate = Octree.locate_points

        def counting(tree, points):
            calls.append((tree, len(points)))
            return locate(tree, points)

        monkeypatch.setattr(Octree, "locate_points", counting)
        cfg = RemeshConfig(coarse_level=2, interface_level=4, feature_level=4)
        new_mesh, new_fields, info = remesh(m, fields, cfg)
        monkeypatch.undo()
        assert not info.unchanged
        on_source = [n for tree, n in calls if tree is m.tree]
        # the source tree is searched for the coarsening votes and, once for
        # all fields, for the new DOF points
        assert len(on_source) == 2
        assert on_source.count(new_mesh.n_dofs) == 1
        for name, vec in fields.items():
            one = transfer_node_centered(m, vec, new_mesh)
            assert np.array_equal(new_fields[name], one)

    def test_level_fractions_and_equivalent_points(self):
        def phi_f(x):
            return drop_phi(x, (0.5, 0.5), 0.25, eps=0.01)

        m = mesh_from_field(phi_f, 2, max_level=7, min_level=3, threshold=0.9)
        fr = level_fractions(m)
        assert np.isclose(fr["element_fraction"].sum(), 1.0)
        assert np.isclose(fr["volume_fraction"].sum(), 1.0)
        # Fine levels dominate element count but not volume (Fig. 8 shape);
        # the coarsest surviving level after 2:1 grading is 4 here.
        coarsest = int(np.nonzero(fr["counts"])[0][0])
        assert fr["element_fraction"][7] > fr["element_fraction"][coarsest]
        # ... while per-element volume differs by 8x per level: the finest
        # level holds the most elements but nowhere near the most volume.
        assert fr["volume_fraction"][7] < fr["volume_fraction"].max() / 2
        assert uniform_equivalent_points(m) == float(2**7 + 1) ** 2


class TestCheckpoint:
    def test_save_load_roundtrip(self, tmp_path):
        m = Mesh.from_tree(uniform_tree(2, 3))
        phi = m.interpolate(lambda x: x[:, 0])
        p = str(tmp_path / "ckpt")
        save_checkpoint(p, m.tree, {"phi": phi}, nprocs=4)
        tree, fields, n = load_checkpoint(p)
        assert tree == m.tree
        assert np.array_equal(fields["phi"], phi)
        assert n == 4

    def test_restart_with_more_ranks(self, tmp_path):
        """Checkpoint written by 2 ranks, restarted on 4: two ranks start
        inactive, then repartition spreads the mesh over all four."""
        m = Mesh.from_tree(uniform_tree(2, 3))
        p = str(tmp_path / "ckpt")
        save_checkpoint(p, m.tree, {}, nprocs=2)

        def fn(comm):
            local, fields, active = restart_distributed(comm, p)
            pre = len(local)
            if comm.rank >= 2:
                assert active is None
                assert pre == 0
            else:
                assert active is not None
                assert active.size == 2
            post = rebalance_all(comm, local)
            return (pre, len(post))

        out = run_spmd(4, fn)
        assert sum(pre for pre, _ in out) == len(m.tree)
        posts = [post for _, post in out]
        assert sum(posts) == len(m.tree)
        assert max(posts) - min(posts) <= 1  # everyone active and balanced

    def test_restart_same_ranks(self, tmp_path):
        m = Mesh.from_tree(uniform_tree(2, 2))
        p = str(tmp_path / "ckpt")
        save_checkpoint(p, m.tree, {}, nprocs=2)

        def fn(comm):
            local, _, active = restart_distributed(comm, p)
            return (len(local), active.size if active else 0)

        out = run_spmd(2, fn)
        assert sum(n for n, _ in out) == len(m.tree)
        assert all(a == 2 for _, a in out)
