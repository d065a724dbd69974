"""Tests for the Octree container and its construction."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.octree import morton
from repro.octree.build import build_tree, tree_from_function, uniform_tree
from repro.octree.tree import Octree

from ..oracles import coverage


def random_leaf_tree(rng, dim, max_level=5, p_refine=0.5):
    """Random linear tree by stochastic top-down refinement."""

    def pred(anchors, levels):
        return rng.random(len(levels)) < p_refine

    return build_tree(dim, pred, max_level=max_level)


class TestOctreeBasics:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_root(self, dim):
        t = Octree.root(dim)
        assert len(t) == 1
        assert t.is_linear()
        assert coverage(t) == pytest.approx(1.0)

    def test_constructor_sorts(self):
        a = np.array([[0, 0], [1 << (morton.MAX_DEPTH - 1), 0], [0, 0]])
        l = np.array([1, 1, 3])
        t = Octree(a, l, 2)
        k = t.keys()
        assert np.all(k[:-1] <= k[1:])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_uniform_tree_counts(self, dim):
        for lev in range(0, 4):
            t = uniform_tree(dim, lev)
            assert len(t) == (1 << (dim * lev))
            assert t.is_linear()
            assert np.all(t.levels == lev)
            assert coverage(t) == pytest.approx(1.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_build_is_linear_and_complete(self, dim):
        rng = np.random.default_rng(0)
        t = random_leaf_tree(rng, dim)
        assert t.is_linear()
        assert coverage(t) == pytest.approx(1.0)

    def test_eq(self):
        t = uniform_tree(2, 2)
        assert t == uniform_tree(2, 2)
        assert t != uniform_tree(2, 3)

    def test_tree_from_function_refines_interface(self):
        def phi(x):
            return np.linalg.norm(x - 0.5, axis=1) - 0.3

        t = tree_from_function(2, phi, max_level=6, min_level=2, threshold=0.05)
        assert t.is_linear()
        assert coverage(t) == pytest.approx(1.0)
        # The finest cells hug the circle; coarse cells exist away from it.
        assert t.levels.max() == 6
        assert t.levels.min() == 2
        fine = t.levels == 6
        centers = t.centers()[fine] / (1 << morton.MAX_DEPTH)
        d = np.abs(np.linalg.norm(centers - 0.5, axis=1) - 0.3)
        # Fine cells sit within a cell-diagonal reach of the interface.
        assert np.all(d < 0.1)

    def test_threshold_is_required(self):
        """No default: 1.0 refines a tanh phase field (|phi| < 1 everywhere)
        to the uniform ``max_level`` tree, so a call must name its band."""
        from repro.mesh.mesh import mesh_from_field

        def phi(x):
            return np.tanh((np.linalg.norm(x - 0.5, axis=1) - 0.3) / 0.05)

        with pytest.raises(TypeError, match="threshold"):
            tree_from_function(2, phi, max_level=4, min_level=2)
        with pytest.raises(TypeError, match="threshold"):
            mesh_from_field(phi, 2, max_level=4, min_level=2)
        t = tree_from_function(2, phi, max_level=4, min_level=2, threshold=0.9)
        assert len(t) < 4 ** 4


class TestImmutable:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_arrays_are_read_only(self, dim):
        t = random_leaf_tree(np.random.default_rng(1), dim, max_level=4)
        with pytest.raises(ValueError):
            t.anchors[0, 0] = 1
        with pytest.raises(ValueError):
            t.levels[0] = 1
        with pytest.raises(ValueError):
            t.keys()[0] = 1

    def test_caller_array_stays_writable(self):
        anchors = np.zeros((1, 2), dtype=np.int64)
        Octree(anchors, [0], 2)
        anchors[0, 0] = 5  # the tree froze its own view, not the caller's

    @pytest.mark.parametrize("presorted", [False, True])
    def test_keys_are_the_morton_keys(self, presorted):
        t = random_leaf_tree(np.random.default_rng(2), 3, max_level=4)
        u = Octree(t.anchors[::-1], t.levels[::-1], 3) if not presorted else t
        np.testing.assert_array_equal(u.keys(), morton.keys(u.anchors, u.levels, 3))
        assert u.keys() is u.keys()  # computed once

    def test_pickled_tree_is_read_only(self):
        t = uniform_tree(2, 2)
        back = pickle.loads(pickle.dumps(t))
        assert back == t
        with pytest.raises(ValueError):
            back.levels[0] = 0


class TestLinearize:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_removes_duplicates(self, dim):
        t = uniform_tree(dim, 2)
        dup = t.merged(t)
        lin = dup.linearize()
        assert lin == t

    @pytest.mark.parametrize("dim", [2, 3])
    def test_removes_ancestors_keeps_finest(self, dim):
        t = uniform_tree(dim, 3)
        with_root = t.merged(Octree.root(dim))
        lin = with_root.linearize()
        assert lin == t

    def test_chain_of_ancestors(self):
        # root, a child, a grandchild along the same SFC path
        anchors = np.zeros((3, 2), np.int64)
        levels = np.array([0, 1, 2])
        t = Octree(anchors, levels, 2).linearize()
        assert len(t) == 1
        assert t.levels[0] == 2

    @pytest.mark.parametrize("dim", [2, 3])
    def test_idempotent(self, dim):
        rng = np.random.default_rng(1)
        t = random_leaf_tree(rng, dim)
        merged = t.merged(uniform_tree(dim, 1))
        once = merged.linearize()
        twice = once.linearize()
        assert once == twice
        assert once.is_linear()


class TestLocate:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_locate_centers(self, dim):
        rng = np.random.default_rng(2)
        t = random_leaf_tree(rng, dim)
        centers = t.centers().astype(np.int64)
        idx = t.locate_points(centers)
        assert np.array_equal(idx, np.arange(len(t)))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_locate_anchors(self, dim):
        rng = np.random.default_rng(3)
        t = random_leaf_tree(rng, dim)
        idx = t.locate_points(t.anchors)
        assert np.array_equal(idx, np.arange(len(t)))

    def test_locate_uncovered_returns_minus_one(self):
        # Incomplete tree: only the first quadrant at level 1.
        half = 1 << (morton.MAX_DEPTH - 1)
        t = Octree(np.array([[0, 0]]), np.array([1]), 2)
        assert t.locate_points(np.array([[half, half]]))[0] == -1
        assert t.locate_points(np.array([[10, 10]]))[0] == 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 3]))
def test_property_build_always_linear_complete(seed, dim):
    rng = np.random.default_rng(seed)
    t = random_leaf_tree(rng, dim, max_level=4, p_refine=0.4)
    assert t.is_linear()
    assert coverage(t) == pytest.approx(1.0)
    # Volumes partition the cube: locate a random point uniquely.
    pts = rng.integers(0, 1 << morton.MAX_DEPTH, size=(20, dim))
    idx = t.locate_points(pts)
    assert np.all(idx >= 0)
