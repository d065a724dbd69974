"""Tests for the region-identification pipeline (paper Algorithms 1-4,
Fig. 1) — image reference, octree kernels, and their equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import image
from repro.core.elemental_cahn import elemental_cahn, erode_dilate_cahn
from repro.core.erode_dilate import ErodeDilateStats, Stage, erode_dilate
from repro.core.identifier import IdentifierConfig, identify_local_cahn
from repro.core.threshold import interface_elements, threshold_octree
from repro.chns.initial_conditions import drop
from repro.mesh.mesh import Mesh, mesh_from_field
from repro.octree.build import uniform_tree


def drop_phi(x, center, radius, eps=0.01):
    """tanh diffuse-interface profile; phi = -1 inside the drop."""
    d = np.linalg.norm(x - np.asarray(center), axis=-1) - radius
    return np.tanh(d / (np.sqrt(2) * eps))


def grid_points(n):
    xs = np.linspace(0, 1, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return np.stack([X, Y], axis=-1)


class TestImagePipeline:
    def test_threshold(self):
        phi = np.array([-1.0, -0.9, 0.0, 0.9, 1.0])
        assert np.array_equal(image.threshold(phi, -0.8), [1, 1, 0, 0, 0])
        assert np.array_equal(image.threshold(phi, 0.8), [1, 1, 1, 0, 0])

    def test_erode_shrinks(self):
        bw = np.zeros((20, 20), np.int8)
        bw[5:15, 5:15] = 1
        e = image.erode(bw, 1)
        assert e.sum() == 8 * 8
        assert image.erode(bw, 4).sum() == 2 * 2
        assert image.erode(bw, 5).sum() == 0

    def test_dilate_grows(self):
        bw = np.zeros((20, 20), np.int8)
        bw[10, 10] = 1
        d = image.dilate(bw, 2)
        assert d.sum() == 5 * 5

    def test_dilate_clamped_at_boundary(self):
        bw = np.zeros((5, 5), np.int8)
        bw[0, 0] = 1
        d = image.dilate(bw, 1)
        assert d.sum() == 4  # quarter neighborhood only

    def test_erode_dilate_inverse_on_large_region(self):
        bw = np.zeros((40, 40), np.int8)
        bw[10:30, 10:30] = 1
        back = image.dilate(image.erode(bw, 3), 3)
        assert np.array_equal(back, bw)

    def test_small_drop_detected_big_drop_kept(self):
        """Fig. 1a: a drop comparable to the interface width is flagged;
        a large drop is not."""
        pts = grid_points(129)
        small = image.identify_regions(
            drop_phi(pts, (0.3, 0.3), 0.02), delta=-0.8, n_erode=3
        )
        big = image.identify_regions(
            drop_phi(pts, (0.7, 0.7), 0.25), delta=-0.8, n_erode=3
        )
        assert small.sum() > 0
        assert big.sum() == 0

    def test_filament_tail_detected_blob_kept(self):
        """Fig. 1b: the thin tail of a blob+filament shape is flagged while
        the bulk survives erosion and is regrown by dilation."""
        n = 129
        pts = grid_points(n)
        x, y = pts[..., 0], pts[..., 1]
        blob = np.sqrt((x - 0.3) ** 2 + (y - 0.5) ** 2) - 0.15
        # Thin horizontal filament from the blob out to x ~ 0.85, half-width
        # 0.03 (a few pixels): negative inside.
        fil = np.maximum(np.abs(y - 0.5) - 0.03, (x - 0.3) * (x - 0.85))
        phi = np.tanh(np.minimum(blob, fil) / 0.01)
        roi = image.identify_regions(phi, delta=-0.8, n_erode=3)
        # Tail pixels (x ~ 0.6, y ~ 0.5) flagged:
        assert roi[int(0.6 * n), int(0.5 * n)] == 1
        # Blob interior not flagged:
        assert roi[int(0.3 * n), int(0.5 * n)] == 0

    def test_subtract_is_and_not(self):
        a = np.array([[1, 1], [0, 0]], np.int8)
        b = np.array([[1, 0], [1, 0]], np.int8)
        assert np.array_equal(image.subtract(a, b), [[0, 1], [0, 0]])


class TestOctreeKernels:
    def uniform_mesh(self, level=5):
        return Mesh.from_tree(uniform_tree(2, level))

    def node_grid(self, mesh, vec):
        """DOF vector -> 2D node-grid array for image comparison."""
        n = int(round(np.sqrt(mesh.n_dofs)))
        coords = mesh.nodes.coords[mesh.nodes.node_of_dof]
        step = coords[:, 0].max() // (n - 1)
        grid = np.zeros((n, n))
        grid[coords[:, 0] // step, coords[:, 1] // step] = vec
        return grid

    def test_threshold_octree_limits(self):
        phi = np.array([-1.0, 0.5, 1.0])
        assert np.array_equal(threshold_octree(phi, -0.8), [1.0, -1.0, -1.0])

    def test_interface_elements_uniform(self):
        m = self.uniform_mesh(3)
        phi = m.interpolate(lambda x: drop_phi(x, (0.5, 0.5), 0.3))
        bw = threshold_octree(phi, -0.8)
        mask = interface_elements(m, bw)
        assert 0 < mask.sum() < m.n_elems
        # Interface elements hug the circle r = 0.3.
        centers = m.elem_centers()[mask]
        d = np.abs(np.linalg.norm(centers - 0.5, axis=1) - 0.3)
        assert np.all(d < 0.25)

    @pytest.mark.parametrize("stage", [Stage.EROSION, Stage.DILATION])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_mesh_equals_image_on_uniform_grid(self, stage, steps):
        """On a uniform mesh the elemental kernels reduce exactly to the
        classic box-stencil morphology on the node grid."""
        m = self.uniform_mesh(5)
        phi = m.interpolate(
            lambda x: drop_phi(x, (0.4, 0.45), 0.2, eps=0.02)
        )
        bw = threshold_octree(phi, -0.8)
        out = erode_dilate(m, bw, stage, steps, 5)
        grid_in = ((self.node_grid(m, bw) + 1) / 2).astype(np.int8)
        if stage is Stage.EROSION:
            ref = image.erode(grid_in, steps)
        else:
            ref = image.dilate(grid_in, steps)
        got = ((self.node_grid(m, out) + 1) / 2).astype(np.int8)
        assert np.array_equal(got, ref)

    def test_level_counter_delays_coarse_elements(self):
        """An element two levels coarser than base waits two visits
        (paper Sec. II-B3)."""
        m = self.uniform_mesh(4)
        phi = m.interpolate(lambda x: drop_phi(x, (0.5, 0.5), 0.25))
        bw = threshold_octree(phi, -0.8)
        base = 6  # two levels finer than the mesh
        one = erode_dilate(m, bw, Stage.EROSION, 1, base)
        two = erode_dilate(m, bw, Stage.EROSION, 2, base)
        three = erode_dilate(m, bw, Stage.EROSION, 3, base)
        assert np.array_equal(one, bw)  # counter 0 -> wait
        assert np.array_equal(two, bw)  # counter 1 -> wait
        assert not np.array_equal(three, bw)  # counter 2 == b_l - l: trigger
        # And three steps at base 6 erode exactly as far as one step at 4.
        direct = erode_dilate(m, bw, Stage.EROSION, 1, 4)
        assert np.array_equal(three, direct)

    def test_base_level_below_finest_level_rejected(self):
        m = self.uniform_mesh(4)
        bw = np.ones(m.n_dofs)
        with pytest.raises(ValueError, match="finest mesh level"):
            erode_dilate(m, bw, Stage.EROSION, 1, 3)

    def test_erosion_removes_small_drop_completely(self):
        m = self.uniform_mesh(5)
        phi = m.interpolate(lambda x: drop_phi(x, (0.5, 0.5), 0.04))
        bw = threshold_octree(phi, -0.8)
        assert np.any(bw > 0)
        out = erode_dilate(m, bw, Stage.EROSION, 3, 5)
        assert np.all(out < 0)

    def test_insert_values_consistent(self):
        """Two adjacent interface elements writing the same node agree —
        INSERT semantics (paper's remark after the dilation definition)."""
        m = self.uniform_mesh(4)
        phi = m.interpolate(lambda x: drop_phi(x, (0.5, 0.5), 0.2))
        bw = threshold_octree(phi, -0.8)
        out = erode_dilate(m, bw, Stage.EROSION, 1, 4)
        assert set(np.unique(out)) <= {-1.0, 1.0}

    def test_stats_counting(self):
        m = self.uniform_mesh(4)
        phi = m.interpolate(lambda x: drop_phi(x, (0.5, 0.5), 0.2))
        bw = threshold_octree(phi, -0.8)
        stats = ErodeDilateStats()
        erode_dilate(m, bw, Stage.EROSION, 2, 4, stats)
        assert stats.steps == 2
        assert stats.elements_visited == 2 * m.n_elems
        assert stats.elements_triggered > 0


class TestElementalCahn:
    def test_eq6_detection(self):
        """A region +1 at threshold but -1 after dilation is marked."""
        m = Mesh.from_tree(uniform_tree(2, 5))
        phi = m.interpolate(lambda x: drop_phi(x, (0.5, 0.5), 0.09))
        bw_o = threshold_octree(phi, -0.8)
        bw_e = erode_dilate(m, bw_o, Stage.EROSION, 4, 5)
        bw_d = erode_dilate(m, bw_e, Stage.DILATION, 8, 5)
        detected = elemental_cahn(m, bw_o, bw_d)
        assert detected.dtype == bool and detected.shape == (m.n_elems,)
        assert detected.sum() > 0
        centers = m.elem_centers()[detected]
        assert np.all(np.linalg.norm(centers - 0.5, axis=1) < 0.12)

    def test_rejects_bad_cn_ordering(self):
        with pytest.raises(ValueError, match="cn_fine"):
            IdentifierConfig(cn_fine=1.0, cn_coarse=0.5)
        with pytest.raises(ValueError, match="cn_fine"):
            IdentifierConfig(cn_fine=0.5, cn_coarse=0.5)

    def test_island_removal(self):
        """Algorithm 4: a single-element island of reduced Cn is erased."""
        m = Mesh.from_tree(uniform_tree(2, 4))
        island = np.zeros(m.n_elems, dtype=bool)
        island[50] = True  # lone island
        out = erode_dilate_cahn(m, island, 4, n_erode=1, n_dilate=0)
        assert not out.any()

    def test_padding_grows_region(self):
        m = Mesh.from_tree(uniform_tree(2, 4))
        centers = m.elem_centers()
        blob = np.linalg.norm(centers - 0.5, axis=1) < 0.15
        out = erode_dilate_cahn(m, blob, 4, n_erode=0, n_dilate=2)
        assert out.sum() > blob.sum()
        assert np.all(out[blob])


class TestIdentifier:
    def test_small_drop_flagged_large_not(self):
        def phi_f(x):
            return np.minimum(
                drop_phi(x, (0.25, 0.25), 0.05, eps=0.008),
                drop_phi(x, (0.7, 0.7), 0.22, eps=0.008),
            )

        m = mesh_from_field(phi_f, 2, max_level=7, min_level=4, threshold=0.9)
        phi = m.interpolate(phi_f)
        res = identify_local_cahn(
            m, phi, IdentifierConfig(delta=-0.8, n_erode=5, n_extra_dilate=3),
            int(m.tree.levels.max()),
        )
        assert res.detected.sum() > 0
        centers = m.elem_centers()[res.detected]
        d_small = np.linalg.norm(centers - 0.25, axis=1)
        d_big = np.linalg.norm(centers - 0.7, axis=1)
        # All detections belong to the small drop's neighborhood.
        assert np.all(np.minimum(d_small, d_big) == d_small)
        assert np.all(d_small < 0.15)

    def test_no_features_no_detection(self):
        m = Mesh.from_tree(uniform_tree(2, 4))
        phi = np.ones(m.n_dofs)  # pure bulk phase
        res = identify_local_cahn(m, phi, IdentifierConfig(delta=-0.8), 4)
        assert res.detected.sum() == 0
        assert np.all(res.elem_cn == IdentifierConfig().cn_coarse)

    def test_adaptive_mesh_detection(self):
        """The identifier works across level jumps (the paper's key claim)."""

        def phi_f(x):
            return drop_phi(x, (0.5, 0.5), 0.04, eps=0.01)

        m = mesh_from_field(phi_f, 2, max_level=7, min_level=3, threshold=0.9)
        assert m.tree.levels.max() - m.tree.levels.min() >= 3
        phi = m.interpolate(phi_f)
        res = identify_local_cahn(
            m, phi, IdentifierConfig(delta=-0.8, n_erode=4, n_extra_dilate=4),
            int(m.tree.levels.max()),
        )
        assert res.detected.sum() > 0

    def test_stats_accumulated(self):
        m = Mesh.from_tree(uniform_tree(2, 4))
        phi = m.interpolate(lambda x: drop_phi(x, (0.5, 0.5), 0.05))
        res = identify_local_cahn(m, phi, IdentifierConfig(delta=-0.8), 4)
        cfg = IdentifierConfig()
        assert res.stats.steps == cfg.n_erode + cfg.n_erode + cfg.n_extra_dilate


def cn_field_detected(mesh, phi, cfg, base_level):
    """Algorithms 3-4 written on a float Cn field that is compared back
    against ``cn_fine`` after each algorithm: an independent spelling of the
    mask pipeline, kept as its oracle."""
    bw_o = threshold_octree(phi, cfg.delta)
    bw_e = erode_dilate(mesh, bw_o, Stage.EROSION, cfg.n_erode, base_level)
    bw_d = erode_dilate(
        mesh, bw_e, Stage.DILATION, cfg.n_erode + cfg.n_extra_dilate,
        base_level,
    )
    nc = 1 << mesh.dim
    eo = mesh.elem_gather(bw_o).sum(axis=1)
    ed = mesh.elem_gather(bw_d).sum(axis=1)
    marked = (np.abs(eo - nc) <= 1e-9) & (np.abs(ed + nc) <= 1e-9)
    elem_cn = np.where(marked, cfg.cn_fine, cfg.cn_coarse)
    nodal = np.ones(mesh.n_nodes)
    local = np.abs(elem_cn - cfg.cn_fine) < 1e-12
    nodal[mesh.nodes.elem_nodes[local].ravel()] = -1.0
    vec = nodal[mesh.nodes.node_of_dof]
    if cfg.cleanup_erode:
        vec = erode_dilate(
            mesh, vec, Stage.DILATION, cfg.cleanup_erode, base_level
        )
    if cfg.cleanup_dilate:
        vec = erode_dilate(
            mesh, vec, Stage.EROSION, cfg.cleanup_dilate, base_level
        )
    elem_cn = np.where(
        np.any(mesh.elem_gather(vec) < 0.0, axis=1), cfg.cn_fine,
        cfg.cn_coarse,
    )
    return np.abs(elem_cn - cfg.cn_fine) < 1e-12


def _two_drops(x):
    return np.minimum(
        drop_phi(x, (0.25, 0.25), 0.05, eps=0.008),
        drop_phi(x, (0.7, 0.7), 0.22, eps=0.008),
    )


def _two_balls(x):
    return np.minimum(
        drop(x, (0.2, 0.2, 0.2), 0.14, 0.03),
        drop(x, (0.7, 0.7, 0.7), 0.26, 0.03),
    )


#: (field, dim, max_level, min_level, IdentifierConfig kwargs, detected
#: count): the adaptive scenes of this file and of the 3D suite.
SCENES = {
    "two_drops_2d": (
        _two_drops, 2, 7, 4, dict(delta=-0.8, n_erode=5, n_extra_dilate=3),
        172,
    ),
    "small_drop_2d": (
        lambda x: drop_phi(x, (0.5, 0.5), 0.04, eps=0.01), 2, 7, 3,
        dict(delta=-0.8, n_erode=4, n_extra_dilate=4), 100,
    ),
    "two_balls_3d": (
        _two_balls, 3, 5, 3, dict(delta=-0.8, n_erode=3, n_extra_dilate=2),
        729,
    ),
}


class TestMaskPipeline:
    """``detected`` on hanging-node meshes with the base level at the
    finest mesh level: the mask pipeline marks exactly what the Cn-field
    oracle marks, and the pinned counts fix the marked set."""

    @pytest.mark.parametrize("scene", sorted(SCENES))
    def test_detected_matches_cn_field_oracle(self, scene):
        field, dim, max_level, min_level, kw, count = SCENES[scene]
        m = mesh_from_field(
            field, dim, max_level=max_level, min_level=min_level,
            threshold=0.9,
        )
        assert m.nodes.is_hanging.any()
        cfg = IdentifierConfig(**kw)
        base = int(m.tree.levels.max())
        phi = m.interpolate(field)
        res = identify_local_cahn(m, phi, cfg, base)
        assert res.detected.dtype == bool
        oracle = cn_field_detected(m, phi, cfg, base)
        assert np.array_equal(res.detected, oracle)
        assert int(res.detected.sum()) == count
        assert np.array_equal(
            res.elem_cn, np.where(res.detected, cfg.cn_fine, cfg.cn_coarse)
        )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 3]),
       extra=st.integers(0, 2), n_erode=st.integers(2, 4))
def test_property_mask_pipeline_matches_cn_field_oracle(seed, dim, extra,
                                                        n_erode):
    """Random drop scenes (one small drop, two larger) on their adapted
    hanging-node meshes, any base level at or past the finest: the mask
    pipeline marks what the Cn-field oracle marks."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.2, 0.8, size=(3, dim))
    radii = np.r_[rng.uniform(0.05, 0.1), rng.uniform(0.1, 0.25, size=2)]

    def phi_f(x):
        return np.min([drop(x, c, r, 0.02) for c, r in zip(centers, radii)],
                      axis=0)

    m = mesh_from_field(phi_f, dim, max_level=6 if dim == 2 else 4,
                        min_level=2, threshold=0.9)
    phi = m.interpolate(phi_f)
    cfg = IdentifierConfig(delta=-0.8, n_erode=n_erode, n_extra_dilate=2)
    base = int(m.tree.levels.max()) + extra
    res = identify_local_cahn(m, phi, cfg, base)
    assert np.array_equal(res.detected, cn_field_detected(m, phi, cfg, base))
