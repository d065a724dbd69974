"""Ablation A4 — erosion/dilation vs connected-component labeling (Sec. V).

The paper's related-work argument made executable: (i) CCL costs more than
the MATVEC-based identifier; (ii) a volume filter on components cannot flag
a thin filament attached to a large body (one component), while the
erosion/dilation pipeline does.
"""

import time

import numpy as np
import pytest

from repro.core.connected_components import flag_small_components, label_components
from repro.core.identifier import IdentifierConfig, identify_local_cahn
from repro.mesh.mesh import mesh_from_field

from _report import format_table, report


def scene_phi(x):
    """Blob + attached filament + one detached small droplet."""
    y, xx = x[..., 1], x[..., 0]
    blob = np.sqrt((xx - 0.3) ** 2 + (y - 0.55) ** 2) - 0.16
    fil = np.maximum(np.abs(y - 0.55) - 0.025, (xx - 0.3) * (xx - 0.85))
    droplet = np.sqrt((xx - 0.75) ** 2 + (y - 0.2) ** 2) - 0.045
    return np.tanh(np.minimum(np.minimum(blob, fil), droplet) / 0.008)


@pytest.fixture(scope="module")
def mesh():
    return mesh_from_field(scene_phi, 2, max_level=7, min_level=4, threshold=0.9)


def test_ccl_kernel(mesh, benchmark):
    phi = mesh.interpolate(scene_phi)
    benchmark.pedantic(label_components, args=(mesh, phi, -0.8), rounds=3)


def test_identifier_kernel(mesh, benchmark):
    phi = mesh.interpolate(scene_phi)
    cfg = IdentifierConfig(delta=-0.8, n_erode=5, n_extra_dilate=3)
    base = int(mesh.tree.levels.max())
    benchmark.pedantic(identify_local_cahn, args=(mesh, phi, cfg, base),
                       rounds=3)


def test_ablation_ccl_report(mesh, benchmark):
    phi = mesh.interpolate(scene_phi)
    cfg = IdentifierConfig(delta=-0.8, n_erode=5, n_extra_dilate=3)

    t0 = time.perf_counter()
    ccl = flag_small_components(mesh, phi, delta=-0.8, volume_threshold=0.015)
    t_ccl = time.perf_counter() - t0
    t0 = time.perf_counter()
    base = int(mesh.tree.levels.max())
    res = benchmark.pedantic(
        identify_local_cahn, args=(mesh, phi, cfg, base), rounds=1
    )
    t_id = time.perf_counter() - t0

    centers = mesh.elem_centers()
    on_filament = (centers[:, 0] > 0.5) & (np.abs(centers[:, 1] - 0.55) < 0.1)
    near_droplet = np.linalg.norm(centers - np.array([0.75, 0.2]), axis=1) < 0.1

    rows = [
        ["components found", ccl.n_components, "-"],
        ["detached droplet flagged",
         "yes" if (ccl.small_elements & near_droplet).any() else "NO",
         "yes" if (res.detected & near_droplet).any() else "NO"],
        ["attached filament flagged",
         "yes" if (ccl.small_elements & on_filament).any() else "NO",
         "yes" if (res.detected & on_filament).any() else "NO"],
        ["wall time (ms)", round(t_ccl * 1e3, 1), round(t_id * 1e3, 1)],
        ["needs neighbor/graph structure", "union-find graph",
         "no (MATVEC only)"],
    ]
    report(
        "ablation_ccl",
        "Erosion/dilation vs connected-component labeling (paper Sec. V)",
        format_table(["quantity", "CCL + volume filter", "identifier"], rows)
        + "\n\nThe filament belongs to the blob's component, so no size "
        "threshold can flag it — the paper's Fig. 1b argument, verified.",
    )
    assert (res.detected & near_droplet).any()
    assert (res.detected & on_filament).any()
    assert not (ccl.small_elements & on_filament).any()
