"""E7 / Fig. 7 — progressive adaptive refinement across many levels.

The paper's Fig. 7 shows a 2D slice of the jet mesh with octree levels
spanning 4..15 — an 11-level spread, i.e. a 10^9x elemental volume ratio in
3D — where the erosion/dilation identifier resolves filament tips and small
bubbles two levels deeper than the bulk interface.  This benchmark drives
the same pipeline on a scaled field and verifies: multi-level span in one
remesh, features deeper than the interface, and the volume-ratio arithmetic
of the paper at its own levels.
"""

import numpy as np
import pytest

from repro.amr.driver import RemeshConfig, remesh
from repro.core.identifier import IdentifierConfig
from repro.mesh.mesh import mesh_from_field
from repro.octree import morton

from _report import format_table, report


def scene_phi(x):
    """Bulk interface + a small droplet (the 'tiny bubble' of Fig. 7)."""
    d_big = np.linalg.norm(x - np.array([0.65, 0.6]), axis=-1) - 0.22
    d_small = np.linalg.norm(x - np.array([0.22, 0.25]), axis=-1) - 0.05
    return np.tanh(np.minimum(d_big, d_small) / 0.012)


def run_remesh():
    mesh = mesh_from_field(scene_phi, 2, max_level=7, min_level=3, threshold=0.9)
    phi = mesh.interpolate(scene_phi)
    # Sweeps are counted at feature_level 9, where a level-7 element moves
    # every fourth sweep: 20 / 12 sweeps are 5 / 3 level-7 cells.
    cfg = RemeshConfig(
        coarse_level=3,
        interface_level=7,
        feature_level=9,
        identifier=IdentifierConfig(delta=-0.8, n_erode=20,
                                    n_extra_dilate=12),
    )
    return remesh(mesh, {"phi": phi}, cfg)


def test_progressive_refinement_kernel(benchmark):
    benchmark.pedantic(run_remesh, rounds=2, iterations=1)


def test_fig7_progressive_refinement(benchmark):
    new_mesh, new_fields, info = benchmark.pedantic(run_remesh, rounds=1)
    levels = new_mesh.tree.levels
    span = int(levels.max() - levels.min())
    vol_ratio = float(8.0 ** (15 - 4))  # paper's own 3D arithmetic
    our_ratio = float(4.0**span)  # 2D
    fine = levels == levels.max()
    centers = new_mesh.elem_centers()
    d_small = np.linalg.norm(centers - np.array([0.22, 0.25]), axis=1)

    rows = [
        ["coarsest level", 4, int(levels.min())],
        ["finest level", 15, int(levels.max())],
        ["level span", 11, span],
        ["elemental volume ratio (paper 3D levels)", "1e9",
         f"{vol_ratio:.3g}"],
        ["elemental volume ratio (this run, 2D)", "-", f"{our_ratio:.3g}"],
        ["feature levels deeper than interface", 2,
         int(levels.max()) - 7],
        ["finest elements near the small droplet", "all",
         "all" if bool(np.all(d_small[fine] < 0.15)) else "NO"],
        ["elements after remesh", "-", new_mesh.n_elems],
        ["refined (count)", "-", info.n_refined],
        ["coarsened (count)", "-", info.n_coarsened],
    ]
    report(
        "fig7",
        "Progressive adaptive refinement (levels, feature vs interface)",
        format_table(["quantity", "paper", "measured"], rows),
    )
    assert span >= 5  # multi-level in a single remesh
    assert levels.max() == 9  # feature level reached
    assert np.all(d_small[fine] < 0.15)  # only the droplet gets level 9
    assert np.isclose(vol_ratio, 8.0**11)
