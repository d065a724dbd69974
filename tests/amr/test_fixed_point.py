"""Remeshing a frozen field is a fixed point.

The identifier counts its erosion widths at ``RemeshConfig.feature_level``,
so the physical width it measures does not depend on the mesh it runs on:
remeshing the output of a remesh with the same fields reproduces the tree.
The full ``jet_2d`` config is the regression case: counted at the current
mesh's finest level instead, its detections switch on and off with the
finest level they create, and the element count alternates 976 / 1972.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import driver
from repro.amr.driver import RemeshConfig, remesh
from repro.chns.initial_conditions import drop, jet_column
from repro.core.identifier import IdentifierConfig
from repro.mesh.intergrid import transfer_node_centered
from repro.mesh.mesh import Mesh, mesh_from_field
from repro.scenarios.registry import build
from repro.scenarios.runner import run_scenario


def jet_2d_state(identifier: bool):
    """Full ``jet_2d`` initial mesh, phi and refinement config."""
    cfg = build("jet_2d", quick=False)
    rc = cfg.refinement.build()
    if not identifier:
        rc.identifier = None
    dom = cfg.domain
    phi0 = cfg.build_ic()
    mesh = mesh_from_field(phi0, dom.dim, max_level=dom.max_level,
                           min_level=dom.min_level, threshold=dom.threshold)
    return mesh, mesh.interpolate(phi0), rc


def two_balls_3d_state(identifier: bool):
    """A small ball the identifier flags beside a large one it keeps."""

    def phi0(x):
        return np.minimum(drop(x, (0.25, 0.25, 0.25), 0.12, 0.03),
                          drop(x, (0.65, 0.65, 0.65), 0.25, 0.03))

    rc = RemeshConfig(
        coarse_level=2, interface_level=4, feature_level=5,
        identifier=(IdentifierConfig(delta=-0.8, n_erode=2, n_extra_dilate=2)
                    if identifier else None),
    )
    mesh = mesh_from_field(phi0, 3, max_level=5, min_level=2, threshold=0.9)
    return mesh, mesh.interpolate(phi0), rc


STATES = {"jet_2d": jet_2d_state, "two_balls_3d": two_balls_3d_state}


@pytest.mark.parametrize("identifier", [True, False], ids=["ident", "plain"])
@pytest.mark.parametrize("state", sorted(STATES))
def test_frozen_field_remesh_is_a_fixed_point(state, identifier):
    """The cycle that reproduces the tree returns its input mesh and copies
    of the fields, bit for bit the values and not the arrays."""
    mesh, phi, rc = STATES[state](identifier)
    first, fields, info = remesh(mesh, {"phi": phi}, rc)
    if identifier:
        assert info.identifier is not None
    for _ in range(4):
        again, moved, info = remesh(first, fields, rc)
        assert info.unchanged
        assert again is first
        assert np.array_equal(moved["phi"], fields["phi"])
        assert not np.shares_memory(moved["phi"], fields["phi"])
        fields = moved


class _Counted:
    """Counts ``Mesh.__init__`` and the driver's ``transfer_node_centered``
    calls; the originals still run."""

    def __init__(self, monkeypatch):
        self.meshes = self.transfers = 0
        init, transfer = Mesh.__init__, driver.transfer_node_centered

        def counting_init(mesh, *args, **kwargs):
            self.meshes += 1
            init(mesh, *args, **kwargs)

        def counting_transfer(*args, **kwargs):
            self.transfers += 1
            return transfer(*args, **kwargs)

        monkeypatch.setattr(Mesh, "__init__", counting_init)
        monkeypatch.setattr(driver, "transfer_node_centered",
                            counting_transfer)


def test_unchanged_cycle_builds_and_transfers_nothing(monkeypatch):
    """The 3D two-ball scene: its first cycle changes the tree (one new
    ``Mesh``, one transfer), its second reproduces it (neither)."""
    mesh, phi, rc = two_balls_3d_state(True)
    counted = _Counted(monkeypatch)
    first, fields, info = remesh(mesh, {"phi": phi}, rc)
    assert not info.unchanged and first is not mesh
    assert (counted.meshes, counted.transfers) == (1, 1)
    again, _, info = remesh(first, fields, rc)
    assert info.unchanged and again is first
    assert (counted.meshes, counted.transfers) == (1, 1)


@pytest.mark.parametrize("state", sorted(STATES))
def test_transfer_onto_the_same_tree_is_the_identity(state):
    """What a cycle that keeps the mesh skips: the transfer onto a new
    ``Mesh`` of the same tree returns every field bit for bit."""
    mesh, phi, rc = STATES[state](True)
    first, fields, _ = remesh(mesh, {"phi": phi}, rc)
    rng = np.random.default_rng(0)
    block = np.column_stack([fields["phi"],
                             rng.standard_normal((first.n_dofs, 2))])
    twin = Mesh(first.tree, check_balance=False)
    moved = transfer_node_centered(first, block, twin)
    assert np.array_equal(moved, block)


@settings(max_examples=8, deadline=None)
@given(amp=st.floats(0.0, 0.3), k=st.floats(3.0, 9.0),
       length=st.floats(0.2, 0.6), half_width=st.floats(0.05, 0.12),
       cx=st.floats(0.6, 0.9), cy=st.floats(0.3, 0.7),
       radius=st.floats(0.03, 0.1))
def test_property_plain_remesh_of_a_remeshed_mesh_is_unchanged(
        amp, k, length, half_width, cx, cy, radius):
    """Identifier off, full ``jet_2d`` levels, a jet with a satellite drop:
    the second cycle reproduces the first cycle's tree.  (With the
    identifier on this is not a property: a detection can move by a cell
    between meshes; the pinned scenes above are its regression cases.)"""

    def phi0(x):
        jet = jet_column(x, half_width=half_width, length=length, Cn=0.03,
                         perturb_amp=amp, perturb_k=k)
        return np.minimum(jet, drop(x, (cx, cy), radius, 0.03))

    rc = build("jet_2d", quick=False).refinement.build()
    rc.identifier = None
    mesh = mesh_from_field(phi0, 2, max_level=6, min_level=3, threshold=0.95)
    first, fields, _ = remesh(mesh, {"phi": mesh.interpolate(phi0)}, rc)
    again, _, info = remesh(first, fields, rc)
    assert info.unchanged and again.tree == first.tree


def test_3d_identifier_refines_the_small_ball_only():
    """The 3D identifier case is not vacuous: the small ball is flagged and
    earns feature_level, the large ball does not."""
    mesh, phi, rc = two_balls_3d_state(True)
    new_mesh, _, info = remesh(mesh, {"phi": phi}, rc)
    assert info.identifier.detected.any()
    fine = new_mesh.elem_centers()[new_mesh.tree.levels == rc.feature_level]
    assert len(fine) > 0
    assert np.all(np.linalg.norm(fine - 0.25, axis=1) < 0.2)


@pytest.mark.slow
def test_jet_2d_element_count_holds_over_20_steps():
    """Full ``jet_2d`` remeshes every second step; over 20 steps the mesh
    stays at 976-1,018 elements instead of alternating with ~1,950."""
    cfg = build("jet_2d", quick=False)
    cfg.time.n_steps = 20
    n_elems = []
    res = run_scenario(cfg, on_step=lambda s: n_elems.append(s.mesh.n_elems))
    assert res.status == "succeeded"
    assert len(n_elems) == 20
    assert 960 <= min(n_elems) and max(n_elems) <= 1040
