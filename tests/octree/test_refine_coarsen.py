"""Tests for multi-level refine (Alg. 5) and coarsen (Alg. 6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.octree import morton
from repro.octree.build import build_tree, uniform_tree
from repro.octree.coarsen import coarsen, coarsen_recursive
from repro.octree.refine import refine, refine_recursive
from repro.octree.tree import Octree


def random_leaf_tree(seed, dim, max_level=4, p=0.5):
    rng = np.random.default_rng(seed)

    def pred(anchors, levels):
        return rng.random(len(levels)) < p

    return build_tree(dim, pred, max_level=max_level)


class TestRefine:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_noop(self, dim):
        t = random_leaf_tree(0, dim)
        out = refine(t, t.levels)
        assert out == t

    @pytest.mark.parametrize("dim", [2, 3])
    def test_uniform_refine_one_level(self, dim):
        t = uniform_tree(dim, 2)
        out = refine(t, t.levels + 1)
        assert out == uniform_tree(dim, 3)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_multi_level_jump(self, dim):
        t = Octree.root(dim)
        out = refine(t, np.array([3]))
        assert out == uniform_tree(dim, 3)

    def test_mixed_jumps_sorted_and_complete(self):
        t = uniform_tree(2, 1)
        targets = np.array([1, 3, 2, 4])
        out = refine(t, targets)
        assert out.is_linear()
        assert out.coverage() == pytest.approx(1.0)
        assert set(np.unique(out.levels)) == {1, 3, 2, 4}

    def test_rejects_coarsening_targets(self):
        t = uniform_tree(2, 2)
        with pytest.raises(ValueError):
            refine(t, t.levels - 1)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_recursive_reference(self, dim):
        t = random_leaf_tree(1, dim, max_level=3)
        rng = np.random.default_rng(2)
        targets = t.levels + rng.integers(0, 3, len(t))
        out = refine(t, targets)
        ref = refine_recursive(t, targets)
        assert out == ref

    def test_count_formula(self):
        t = Octree.root(3)
        out = refine(t, np.array([2]))
        assert len(out) == 8**2


class TestCoarsen:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_noop_votes(self, dim):
        t = random_leaf_tree(3, dim)
        out = coarsen(t, t.levels)
        assert out == t

    @pytest.mark.parametrize("dim", [2, 3])
    def test_full_collapse_to_root(self, dim):
        t = uniform_tree(dim, 3)
        out = coarsen(t, np.zeros(len(t), np.int64))
        assert len(out) == 1
        assert out.levels[0] == 0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_multi_level_collapse(self, dim):
        t = uniform_tree(dim, 3)
        out = coarsen(t, np.ones(len(t), np.int64))
        assert out == uniform_tree(dim, 1)

    def test_single_dissent_blocks_whole_ancestor(self):
        """One leaf voting to stay fine prevents its ancestors from forming,
        but does not block disjoint subtrees (consensus requirement (i))."""
        t = uniform_tree(2, 2)
        votes = np.zeros(len(t), np.int64)
        votes[0] = 2  # first leaf refuses any coarsening
        out = coarsen(t, votes)
        # The quadrant containing leaf 0 stays at level 2; consensus cannot
        # produce the root, so the other three quadrants coarsen to level 1.
        assert out.is_linear()
        assert out.coverage() == pytest.approx(1.0)
        assert np.sum(out.levels == 2) == 4
        assert np.sum(out.levels == 1) == 3

    def test_coarsest_ancestor_requirement(self):
        """Requirement (ii): output is the coarsest acceptable ancestor."""
        t = uniform_tree(2, 3)
        votes = np.full(len(t), 1, np.int64)
        out = coarsen(t, votes)
        assert np.all(out.levels == 1)

    def test_incomplete_tree_coarsens_partial_families(self):
        full = uniform_tree(2, 3)
        t = Octree(full.anchors[:16], full.levels[:16], 2)  # first quadrant
        out = coarsen(t, np.zeros(len(t), np.int64))
        # Everything collapses to the root even though the input is incomplete.
        assert len(out) == 1
        assert out.levels[0] == 0

    def test_rejects_votes_finer_than_leaf(self):
        t = uniform_tree(2, 1)
        with pytest.raises(ValueError):
            coarsen(t, t.levels + 1)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_recursive_reference(self, dim):
        t = random_leaf_tree(4, dim, max_level=3)
        rng = np.random.default_rng(5)
        votes = np.maximum(t.levels - rng.integers(0, 4, len(t)), 0)
        out = coarsen(t, votes)
        ref = coarsen_recursive(t, votes)
        assert out == ref

    @pytest.mark.parametrize("dim", [2, 3])
    def test_refine_then_coarsen_roundtrip(self, dim):
        t = random_leaf_tree(6, dim, max_level=3)
        fine = refine(t, np.minimum(t.levels + 2, morton.MAX_DEPTH))
        # Vote each fine leaf back to its original ancestor's level.
        orig_idx = t.locate_points(fine.centers().astype(np.int64))
        votes = t.levels[orig_idx]
        back = coarsen(fine, votes)
        assert back == t


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 3]))
def test_property_coarsen_consensus(seed, dim):
    """Vectorized coarsen == literal Algorithm 6 on random trees and votes."""
    t = random_leaf_tree(seed, dim, max_level=3, p=0.5)
    rng = np.random.default_rng(seed + 1)
    votes = np.maximum(t.levels - rng.integers(0, 4, len(t)), 0)
    out = coarsen(t, votes)
    ref = coarsen_recursive(t, votes)
    assert out == ref
    assert out.is_linear()
    assert out.coverage() == pytest.approx(t.coverage())
    # No output octant is finer than its input leaves, and every vote is
    # respected: the ancestor containing each input leaf has level >= vote.
    idx = out.locate_points(t.centers().astype(np.int64))
    assert np.all(out.levels[idx] >= votes)
    assert np.all(out.levels[idx] <= t.levels)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 3]))
def test_property_refine_matches_reference(seed, dim):
    t = random_leaf_tree(seed, dim, max_level=3, p=0.4)
    rng = np.random.default_rng(seed + 7)
    targets = np.minimum(t.levels + rng.integers(0, 3, len(t)), morton.MAX_DEPTH)
    out = refine(t, targets)
    assert out == refine_recursive(t, targets)
    assert out.is_linear()
    assert out.coverage() == pytest.approx(t.coverage())
