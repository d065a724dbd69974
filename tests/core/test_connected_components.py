"""Tests for the connected-component labeling baseline (paper Sec. V)."""

import numpy as np
import pytest

from repro.core.connected_components import flag_small_components, label_components
from repro.core.identifier import IdentifierConfig, identify_local_cahn
from repro.mesh.mesh import Mesh, mesh_from_field
from repro.octree.build import uniform_tree


def drop_phi(x, center, radius, eps=0.01):
    d = np.linalg.norm(x - np.asarray(center), axis=-1) - radius
    return np.tanh(d / (np.sqrt(2) * eps))


def blob_with_filament(x):
    """Large blob with a thin attached filament — the paper's Fig. 1b case."""
    y, xx = x[..., 1], x[..., 0]
    blob = np.sqrt((xx - 0.3) ** 2 + (y - 0.5) ** 2) - 0.16
    fil = np.maximum(np.abs(y - 0.5) - 0.025, (xx - 0.3) * (xx - 0.85))
    return np.tanh(np.minimum(blob, fil) / 0.008)


class TestLabeling:
    def test_single_drop_one_component(self):
        m = Mesh.from_tree(uniform_tree(2, 5))
        phi = m.interpolate(lambda x: drop_phi(x, (0.5, 0.5), 0.2))
        labels, n = label_components(m, phi, delta=-0.8)
        assert n == 1
        assert (labels >= 0).sum() > 0

    def test_two_drops_two_components(self):
        m = Mesh.from_tree(uniform_tree(2, 5))
        phi = m.interpolate(
            lambda x: np.minimum(
                drop_phi(x, (0.25, 0.25), 0.1), drop_phi(x, (0.75, 0.75), 0.1)
            )
        )
        labels, n = label_components(m, phi, delta=-0.8)
        assert n == 2

    def test_empty_phase(self):
        m = Mesh.from_tree(uniform_tree(2, 3))
        labels, n = label_components(m, np.ones(m.n_dofs), delta=-0.8)
        assert n == 0
        assert np.all(labels == -1)

    def test_corner_touch_merges(self):
        """Node-sharing connectivity merges regions meeting at a corner —
        consistent with the erosion stencil's box neighborhood."""
        m = Mesh.from_tree(uniform_tree(2, 4))
        # Two squares whose thresholded footprints meet around (0.5, 0.5).
        def phi(x):
            a = np.maximum(np.abs(x[:, 0] - 0.375), np.abs(x[:, 1] - 0.375)) - 0.14
            b = np.maximum(np.abs(x[:, 0] - 0.625), np.abs(x[:, 1] - 0.625)) - 0.14
            return np.tanh(np.minimum(a, b) / 0.01)

        labels, n = label_components(m, m.interpolate(phi), delta=-0.8)
        assert n == 1

    def test_adaptive_mesh_labeling(self):
        def phi_f(x):
            return np.minimum(
                drop_phi(x, (0.2, 0.2), 0.07), drop_phi(x, (0.7, 0.7), 0.2)
            )

        m = mesh_from_field(phi_f, 2, max_level=6, min_level=3, threshold=0.9)
        labels, n = label_components(m, m.interpolate(phi_f), delta=-0.8)
        assert n == 2


class TestSizeFilter:
    def test_small_drop_flagged_big_not(self):
        m = Mesh.from_tree(uniform_tree(2, 6))
        phi = m.interpolate(
            lambda x: np.minimum(
                drop_phi(x, (0.2, 0.2), 0.05), drop_phi(x, (0.65, 0.65), 0.22)
            )
        )
        stats = flag_small_components(m, phi, delta=-0.8, volume_threshold=0.03)
        assert stats.n_components == 2
        assert stats.small_elements.sum() > 0
        centers = m.elem_centers()[stats.small_elements]
        assert np.all(np.linalg.norm(centers - 0.2, axis=1) < 0.12)

    def test_filament_invisible_to_ccl_but_found_by_identifier(self):
        """The paper's central Sec.-V argument, as an executable fact: the
        attached filament is one component with the blob, so no volume
        threshold flags it — while erosion/dilation does."""
        m = mesh_from_field(blob_with_filament, 2, max_level=7, min_level=4,
                            threshold=0.9)
        phi = m.interpolate(blob_with_filament)
        labels, n = label_components(m, phi, delta=-0.8)
        assert n == 1  # blob + filament are a single component
        stats = flag_small_components(
            m, phi, delta=-0.8, volume_threshold=0.02
        )
        assert stats.small_elements.sum() == 0  # CCL finds nothing

        res = identify_local_cahn(
            m, phi, IdentifierConfig(delta=-0.8, n_erode=5, n_extra_dilate=3),
            int(m.tree.levels.max()),
        )
        centers = m.elem_centers()[res.detected]
        on_filament = (
            (centers[:, 0] > 0.5)
            & (np.abs(centers[:, 1] - 0.5) < 0.1)
        )
        assert on_filament.sum() > 0  # erosion/dilation flags the filament
