"""Unit and property tests for Morton/SFC key machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.octree import morton


def rand_octants(rng, n, dim, max_level=8):
    levels = rng.integers(0, max_level + 1, size=n)
    size = morton.cell_size(levels)
    cells = rng.integers(0, 1 << max_level, size=(n, dim))
    anchors = (cells % (1 << levels)[:, None]) * size[:, None]
    return anchors, levels


class TestDilate:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_roundtrip(self, dim):
        x = np.arange(0, 1 << morton.MAX_DEPTH, 12345, dtype=np.uint64)
        assert np.array_equal(morton._contract(morton._dilate(x, dim), dim), x)

    def test_dilate2_small(self):
        assert int(morton._dilate(np.array([0b11], np.uint64), 2)[0]) == 0b0101
        assert int(morton._dilate(np.array([0b10], np.uint64), 2)[0]) == 0b0100

    def test_dilate3_small(self):
        assert int(morton._dilate(np.array([0b11], np.uint64), 3)[0]) == 0b001001
        assert int(morton._dilate(np.array([0b101], np.uint64), 3)[0]) == 0b001000001


class TestKeys:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_decode_roundtrip(self, dim):
        rng = np.random.default_rng(0)
        anchors, levels = rand_octants(rng, 500, dim)
        k = morton.keys(anchors, levels, dim)
        a2, l2 = morton.decode_key(k, dim)
        assert np.array_equal(a2, anchors)
        assert np.array_equal(l2, levels)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_preorder_ancestor_precedes(self, dim):
        rng = np.random.default_rng(1)
        anchors, levels = rand_octants(rng, 200, dim, max_level=6)
        sel = levels > 0
        pa, pl = morton.parent(anchors[sel], levels[sel])
        kp = morton.keys(pa, pl, dim)
        kc = morton.keys(anchors[sel], levels[sel], dim)
        assert np.all(kp < kc)

    def test_root_key_is_zero(self):
        k = morton.keys(np.zeros((1, 2), np.int64), np.zeros(1, np.int64), 2)
        assert int(k[0]) == 0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_keys_unique_per_octant(self, dim):
        rng = np.random.default_rng(2)
        anchors, levels = rand_octants(rng, 1000, dim)
        k = morton.keys(anchors, levels, dim)
        packed = [tuple(a) + (l,) for a, l in zip(anchors.tolist(), levels.tolist())]
        assert len(set(k.tolist())) == len(set(packed))

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            morton.keys(np.zeros((1, 2), np.int64), np.array([morton.MAX_DEPTH + 1]), 2)

    def test_rejects_out_of_domain_anchor(self):
        with pytest.raises(ValueError):
            morton.morton(np.array([[1 << morton.MAX_DEPTH, 0]]), 2)


class TestHierarchy:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_children_are_descendants(self, dim):
        rng = np.random.default_rng(3)
        anchors, levels = rand_octants(rng, 100, dim, max_level=6)
        ca, cl = morton.children(anchors, levels, dim)
        for c in range(1 << dim):
            assert np.all(morton.is_ancestor(anchors, levels, ca[:, c], cl[:, c]))
            assert np.all(
                morton.is_ancestor(anchors, levels, ca[:, c], cl[:, c], strict=True)
            )

    @pytest.mark.parametrize("dim", [2, 3])
    def test_parent_of_child_is_self(self, dim):
        rng = np.random.default_rng(4)
        anchors, levels = rand_octants(rng, 100, dim, max_level=6)
        ca, cl = morton.children(anchors, levels, dim)
        for c in range(1 << dim):
            pa, pl = morton.parent(ca[:, c], cl[:, c])
            assert np.array_equal(pa, anchors)
            assert np.array_equal(pl, levels)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_children_morton_order(self, dim):
        a = np.zeros((1, dim), np.int64)
        l = np.zeros(1, np.int64)
        ca, cl = morton.children(a, l, dim)
        k = morton.keys(ca[0], cl[0], dim)
        assert np.all(k[:-1] < k[1:])

    def test_is_ancestor_not_strict_includes_self(self):
        a = np.array([[0, 0]])
        l = np.array([3])
        assert morton.is_ancestor(a, l, a, l)[0]
        assert not morton.is_ancestor(a, l, a, l, strict=True)[0]

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            morton.parent(np.zeros((1, 2), np.int64), np.zeros(1, np.int64))

    def test_cannot_refine_past_max_depth(self):
        with pytest.raises(ValueError):
            morton.children(
                np.zeros((1, 2), np.int64), np.array([morton.MAX_DEPTH]), 2
            )

    @pytest.mark.parametrize("dim", [2, 3])
    def test_disjoint_siblings_do_not_overlap(self, dim):
        a = np.zeros((1, dim), np.int64)
        ca, cl = morton.children(a, np.zeros(1, np.int64), dim)
        for i in range(1 << dim):
            for j in range(1 << dim):
                ov = morton.overlaps(ca[0, i], cl[0, i], ca[0, j], cl[0, j])
                assert bool(ov) == (i == j)


class TestDescendantRange:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_range_contains_exactly_descendants(self, dim):
        rng = np.random.default_rng(6)
        anchors, levels = rand_octants(rng, 50, dim, max_level=4)
        lo, hi = morton.descendant_key_range(anchors, levels, dim)
        probes_a, probes_l = rand_octants(rng, 300, dim, max_level=6)
        pk = morton.keys(probes_a, probes_l, dim)
        for i in range(len(levels)):
            in_range = (pk >= lo[i]) & (pk < hi[i])
            is_desc = morton.is_ancestor(anchors[i], levels[i], probes_a, probes_l)
            assert np.array_equal(in_range, is_desc)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    dim=st.sampled_from([2, 3]),
)
def test_key_order_matches_hierarchy_property(data, dim):
    """Pre-order hierarchical property: ancestor < descendant; SFC order total."""
    lev = data.draw(st.integers(min_value=1, max_value=6))
    cell = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << lev) - 1),
            min_size=dim,
            max_size=dim,
        )
    )
    size = int(morton.cell_size(np.array([lev]))[0])
    anchor = np.array(cell) * size
    k_self = morton.keys(anchor[None], np.array([lev]), dim)[0]
    pa, pl = morton.parent(anchor[None], np.array([lev]))
    k_parent = morton.keys(pa, pl, dim)[0]
    assert k_parent < k_self
    lo, hi = morton.descendant_key_range(pa, pl, dim)
    assert lo[0] <= k_self < hi[0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 3]))
def test_key_contains_matches_is_ancestor(seed, dim):
    """Point containment read off the keys alone equals the geometric test,
    at every level including the root and MAX_DEPTH."""
    rng = np.random.default_rng(seed)
    anchors, levels = rand_octants(rng, 200, dim, max_level=morton.MAX_DEPTH)
    size = morton.cell_size(levels)
    # half the points inside their octant, half anywhere in the root cube
    inside = anchors + rng.integers(0, size[:, None], size=(200, dim))
    anywhere = rng.integers(0, 1 << morton.MAX_DEPTH, size=(200, dim))
    points = np.where(rng.random(200)[:, None] < 0.5, inside, anywhere)
    got = morton.key_contains(
        morton.keys(anchors, levels, dim), morton.point_keys(points, dim), dim
    )
    expect = morton.is_ancestor(
        anchors, levels, points, np.full(200, morton.MAX_DEPTH)
    )
    assert np.array_equal(got, expect)
    assert got.any() and not got.all()
