"""E1 / Fig. 1 — identification of key regions (drop and filament).

Regenerates the paper's Fig. 1 pipeline on both the uniform-grid (image)
reference and the adaptive octree mesh: a small droplet and the thin tail of
a blob+filament are flagged for local-Cahn reduction, while bulk features
survive erosion and are not flagged.  The timed kernel is the full
LOCALCAHNIDENTIFIER (Algorithm 1) on an adaptive mesh.
"""

import numpy as np
import pytest

from repro.core import image
from repro.core.identifier import IdentifierConfig, identify_local_cahn
from repro.mesh.mesh import mesh_from_field

from _report import format_table, report


def drop_phi(x, center, radius, eps=0.01):
    d = np.linalg.norm(x - np.asarray(center), axis=-1) - radius
    return np.tanh(d / (np.sqrt(2) * eps))


def scene_phi(x):
    """Small drop + large drop + thin filament off the large drop."""
    small = drop_phi(x, (0.2, 0.2), 0.05, eps=0.008)
    big = drop_phi(x, (0.65, 0.65), 0.2, eps=0.008)
    y, xx = x[..., 1], x[..., 0]
    fil = np.tanh(
        np.maximum(np.abs(y - 0.65) - 0.02, (xx - 0.05) * (xx - 0.45)) / 0.008
    )
    return np.minimum(np.minimum(small, big), fil)


@pytest.fixture(scope="module")
def mesh():
    return mesh_from_field(scene_phi, 2, max_level=7, min_level=4, threshold=0.9)


def test_fig1_image_reference(benchmark):
    n = 257
    xs = np.linspace(0, 1, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([X, Y], axis=-1)
    phi = scene_phi(pts)

    roi = benchmark(
        image.identify_regions, phi, delta=-0.8, n_erode=12, n_extra_dilate=3
    )
    # Small drop flagged; big drop interior not.
    assert roi[int(0.2 * n), int(0.2 * n)] == 1
    assert roi[int(0.65 * n), int(0.65 * n)] == 0
    # Filament mid-body flagged.
    assert roi[int(0.25 * n), int(0.65 * n)] == 1


def test_fig1_octree_identifier(mesh, benchmark):
    phi = mesh.interpolate(scene_phi)
    cfg = IdentifierConfig(delta=-0.8, n_erode=5, n_extra_dilate=3)

    res = benchmark(
        identify_local_cahn, mesh, phi, cfg, int(mesh.tree.levels.max())
    )

    centers = mesh.elem_centers()
    d_small = np.linalg.norm(centers - np.array([0.2, 0.2]), axis=1)
    d_big = np.linalg.norm(centers - np.array([0.65, 0.65]), axis=1)
    det = res.detected
    n_small = int((det & (d_small < 0.12)).sum())
    n_big_interior = int((det & (d_big < 0.1)).sum())
    rows = [
        ["small droplet flagged", "yes", "yes" if n_small > 0 else "NO"],
        ["large drop interior flagged", "no", "no" if n_big_interior == 0 else "YES"],
        ["detected elements", "-", int(det.sum())],
        ["mesh elements", "-", mesh.n_elems],
        ["erosion sweeps", "paper: series", cfg.n_erode],
        ["extra dilations", "3-4", cfg.n_extra_dilate],
    ]
    report(
        "fig1",
        "Identification of key regions (drop + filament), T/E/D/S pipeline",
        format_table(["quantity", "paper", "measured"], rows),
    )
    assert n_small > 0
    assert n_big_interior == 0
