"""Tests for 2:1 balancing and neighbor queries."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.octree import morton
from repro.octree.balance import balance, is_balanced
from repro.octree.build import build_tree, uniform_tree
from repro.octree.neighbors import (
    balance_stencil,
    direction_stencil,
    neighbor_sample_points,
)
from repro.octree.refine import refine
from repro.octree.tree import Octree

from ..oracles import coverage
from .test_balance_oracles import jumpy_tree, leaf_neighbors


def random_leaf_tree(seed, dim, max_level=5, p=0.4):
    rng = np.random.default_rng(seed)

    def pred(anchors, levels):
        return rng.random(len(levels)) < p

    return build_tree(dim, pred, max_level=max_level)


class TestNeighbors:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_direction_stencil_count(self, dim):
        assert len(direction_stencil(dim)) == 3**dim - 1

    def test_uniform_grid_neighbors(self):
        t = uniform_tree(2, 2)
        nbr = leaf_neighbors(t)
        # Interior cell: all 8 neighbors valid; corner cell: 3 valid.
        valid_counts = np.sum(nbr >= 0, axis=1)
        assert valid_counts.max() == 8
        assert valid_counts.min() == 3
        # Neighbor relation is symmetric on a uniform grid.
        for i in range(len(t)):
            for j in nbr[i]:
                if j >= 0:
                    assert i in nbr[j]

    def test_face_neighbor_anchors(self):
        t = uniform_tree(2, 1)
        out, inside = neighbor_sample_points(t.anchors, t.levels, 2)
        assert out.shape == (4, 8, 2)
        face = np.abs(direction_stencil(2)).sum(axis=1) == 1
        # Each level-1 cell has exactly 2 in-cube face neighbors.
        assert np.all(inside[:, face].sum(axis=1) == 2)

    def test_neighbor_of_coarse_cell_is_fine(self):
        # Refine one quadrant only; its coarse siblings see the fine leaves.
        t = uniform_tree(2, 1)
        targets = t.levels.copy()
        targets[0] = 2
        t2 = refine(t, targets)
        nbr = leaf_neighbors(t2)
        coarse = np.nonzero(t2.levels == 1)[0]
        fine_seen = t2.levels[nbr[coarse][nbr[coarse] >= 0]]
        assert fine_seen.max() == 2


class TestBalance:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_uniform_is_balanced(self, dim):
        assert is_balanced(uniform_tree(dim, 3))

    def test_detects_violation(self):
        # One leaf at level 3 next to a level-1 leaf.
        t = uniform_tree(2, 1)
        targets = t.levels.copy()
        targets[0] = 3
        t2 = refine(t, targets)
        assert not is_balanced(t2)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_balance_fixes_violation(self, dim):
        t = uniform_tree(dim, 1)
        targets = t.levels.copy()
        targets[0] = 4
        t2 = refine(t, targets)
        b = balance(t2)
        assert is_balanced(b)
        assert b.is_linear()
        assert coverage(b) == pytest.approx(1.0)
        # Balancing only refines.
        idx = t2.locate_points(b.centers().astype(np.int64))
        assert np.all(b.levels >= t2.levels[idx])

    def test_balance_idempotent(self):
        t = random_leaf_tree(0, 2)
        b = balance(t)
        assert balance(b) == b

    @pytest.mark.parametrize("dim", [2, 3])
    def test_balance_minimal_on_already_balanced(self, dim):
        t = uniform_tree(dim, 2)
        assert balance(t) == t

    def test_corner_balance_enforced(self):
        """A diagonal (corner) neighbor difference of 2 must be repaired."""
        half = 1 << (morton.MAX_DEPTH - 1)
        quarter = half // 2
        # level-2 leaf at origin corner region + coarse level-... build:
        t = uniform_tree(2, 1)
        targets = np.array([3, 1, 1, 1])
        t2 = refine(t, targets)
        b = balance(t2)
        assert is_balanced(b)
        # The diagonal quadrant (far corner) may stay at level 1 only if the
        # corner-adjacent leaves allow it; verify via the checker, plus no
        # leaf pair sharing the center point differs by more than 1:
        center = np.array([[half, half]])
        probes = np.array(
            [
                [half - 1, half - 1],
                [half, half],
                [half - 1, half],
                [half, half - 1],
            ]
        )
        idx = b.locate_points(probes)
        levs = b.levels[idx]
        assert levs.max() - levs.min() <= 1


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 3]))
def test_property_balance(seed, dim):
    t = random_leaf_tree(seed, dim, max_level=4 if dim == 3 else 6)
    b = balance(t)
    assert is_balanced(b)
    assert b.is_linear()
    assert coverage(b) == pytest.approx(coverage(t))
    # Only refinement happened.
    idx = t.locate_points(b.centers().astype(np.int64))
    assert np.all(b.levels >= t.levels[idx])


# ------------------------------------------- incremental passes vs the oracle


def ripple_balance(tree):
    """The full ripple, the oracle: every pass checks every leaf."""
    current = tree
    while True:
        nbr = leaf_neighbors(current)
        levels = current.levels
        valid = nbr >= 0
        nbr_levels = np.where(valid, levels[np.where(valid, nbr, 0)], 10**9)
        required = levels[:, None] - 1
        viol = valid & (nbr_levels < required)
        if not np.any(viol):
            return current
        targets = levels.copy()
        np.maximum.at(
            targets, nbr[viol], np.broadcast_to(required, viol.shape)[viol]
        )
        current = refine(current, np.minimum(targets, levels + 1))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 3]),
       chunk=st.booleans())
def test_property_balance_equals_full_ripple(seed, dim, chunk):
    t = jumpy_tree(seed, dim, chunk)
    b = balance(t)
    oracle = ripple_balance(t)
    assert np.array_equal(b.anchors, oracle.anchors)
    assert np.array_equal(b.levels, oracle.levels)


def test_later_passes_check_only_what_changed(monkeypatch):
    checked = []

    def counting(tree, check=None):
        stencil = balance_stencil(tree, check)
        # (leaves, leaves the pass covers, octants it queries)
        checked.append((len(tree), int(stencil.span.sum()), len(stencil.first)))
        return stencil

    # (the package re-exports the function under the module's name)
    module = importlib.import_module("repro.octree.balance")
    monkeypatch.setattr(module, "balance_stencil", counting)
    t = uniform_tree(2, 3)
    targets = t.levels.copy()
    targets[0] = 8  # a 5-level jump: several ripple passes
    b = balance(refine(t, targets))
    passes = list(checked)
    assert len(passes) >= 3
    assert passes[0][1] == passes[0][0]  # the first pass covers every leaf
    assert all(n_covered < n_leaves for n_leaves, n_covered, _ in passes[1:])
    assert all(n_query <= n_covered for _, n_covered, n_query in passes)
    assert is_balanced(b)


def test_uniform_check_queries_one_parent_per_family():
    """A uniform level-5 2D tree is 256 complete sibling families: its 2:1
    check queries 256 parents, not 1,024 leaves, and still finds it
    balanced."""
    t = uniform_tree(2, 5)
    stencil = balance_stencil(t)
    assert len(t) == 1024
    assert len(stencil.first) == 256
    assert np.all(stencil.span == 4)
    assert is_balanced(t)
