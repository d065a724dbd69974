"""Tests for distributed octree algorithms: partition, overlap search,
parallel coarsening (Algorithm 7), distributed tree sort."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.comm import run_spmd
from repro.mpi.sort import kway_sort
from repro.octree import morton
from repro.octree.build import build_tree, uniform_tree
from repro.octree.coarsen import coarsen
from repro.octree.overlap import (
    local_overlap_range,
    overlapping_ranks,
    overlapping_ranks_bsearch,
    sq_below,
)
from repro.octree.parcoarsen import par_coarsen
from repro.octree.partition import (
    partition_endpoints,
    repartition,
    scatter_tree,
)
from repro.octree.tree import Octree


def random_leaf_tree(seed, dim, max_level=4, p=0.5):
    rng = np.random.default_rng(seed)

    def pred(anchors, levels):
        return rng.random(len(levels)) < p

    return build_tree(dim, pred, max_level=max_level)


class TestScatterGather:
    def test_scatter_covers_all(self):
        t = uniform_tree(2, 3)
        parts = scatter_tree(t, 4)
        assert sum(len(p) for p in parts) == len(t)

    def test_gather_roundtrip(self):
        t = random_leaf_tree(0, 2)
        parts = scatter_tree(t, 3)

        def fn(comm):
            local = parts[comm.rank]
            pieces = comm.allgather((local.anchors, local.levels))
            return Octree(
                np.concatenate([a for a, _ in pieces]),
                np.concatenate([l for _, l in pieces]),
                local.dim,
                presorted=True,
            )

        outs = run_spmd(3, fn)
        for g in outs:
            assert g == t

    def test_partition_endpoints(self):
        t = uniform_tree(2, 2)
        parts = scatter_tree(t, 4)

        def fn(comm):
            lows, highs = partition_endpoints(comm, parts[comm.rank])
            return (lows, highs)

        lows, highs = run_spmd(4, fn)[0]
        for r in range(4):
            assert np.array_equal(lows[r][0], parts[r].anchors[0])
            assert np.array_equal(highs[r][0], parts[r].anchors[-1])


class TestRepartition:
    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_unweighted_balances(self, nprocs):
        t = random_leaf_tree(1, 2)
        parts = scatter_tree(t, nprocs)
        # Unbalance: give everything to rank 0.
        lop = [t] + [Octree.empty(2) for _ in range(nprocs - 1)]

        def fn(comm):
            out = repartition(comm, lop[comm.rank])
            return out

        outs = run_spmd(nprocs, fn)
        sizes = [len(o) for o in outs]
        assert sum(sizes) == len(t)
        assert max(sizes) - min(sizes) <= 1
        merged = Octree(
            np.concatenate([o.anchors for o in outs]),
            np.concatenate([o.levels for o in outs]),
            2,
            presorted=True,
        )
        assert merged == t

    def test_weighted(self):
        t = uniform_tree(2, 3)  # 64 leaves
        parts = scatter_tree(t, 2)
        # Make the first 16 leaves 10x heavier.
        weights = [np.ones(len(p)) for p in parts]
        weights[0][:16] = 10.0

        def fn(comm):
            return len(repartition(comm, parts[comm.rank], weights[comm.rank]))

        sizes = run_spmd(2, fn)
        assert sum(sizes) == 64
        # Rank 0 takes far fewer elements because its head is heavy.
        assert sizes[0] < sizes[1]

    def test_payload_travels(self):
        t = uniform_tree(2, 2)
        parts = scatter_tree(t, 2)
        payloads = [np.arange(len(parts[0])), np.arange(len(parts[1])) + 100]

        def fn(comm):
            out, p = repartition(
                comm, parts[comm.rank], payload=payloads[comm.rank]
            )
            return (out, p)

        outs = run_spmd(2, fn)
        allp = np.concatenate([o[1] for o in outs])
        expect = np.concatenate(payloads)
        assert np.array_equal(np.sort(allp), np.sort(expect))


class TestOverlapSearch:
    def test_sq_below_basic(self):
        root = (np.zeros(2, np.int64), 0)
        half = 1 << (morton.MAX_DEPTH - 1)
        q0 = (np.zeros(2, np.int64), 1)
        q3 = (np.array([half, half]), 1)
        assert sq_below(root, q3, 2)  # ancestor overlap
        assert sq_below(q3, root, 2)  # overlap is symmetric in ⊑
        assert sq_below(q0, q3, 2)  # plain SFC order
        assert not sq_below(q3, q0, 2)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bsearch_equals_bruteforce(self, seed):
        g = random_leaf_tree(seed, 2)
        h = random_leaf_tree(seed + 100, 2)
        gp = scatter_tree(g, 3)
        hp = scatter_tree(h, 5)
        h_lows = [(p.anchors[0], int(p.levels[0])) if len(p) else None for p in hp]
        h_highs = [(p.anchors[-1], int(p.levels[-1])) if len(p) else None for p in hp]
        for p in gp:
            if not len(p):
                continue
            my_lo = (p.anchors[0], int(p.levels[0]))
            my_hi = (p.anchors[-1], int(p.levels[-1]))
            brute = overlapping_ranks(my_lo, my_hi, h_lows, h_highs, 2)
            fast = overlapping_ranks_bsearch(my_lo, my_hi, h_lows, h_highs, 2)
            assert brute == fast

    @pytest.mark.parametrize("seed", [0, 5])
    def test_overlap_detection_complete(self, seed):
        """Every (g-chunk, h-chunk) pair with an actual octant overlap is
        reported by the endpoint-interval search."""
        g = random_leaf_tree(seed, 2, max_level=3)
        h = random_leaf_tree(seed + 50, 2, max_level=3)
        gp, hp = scatter_tree(g, 2), scatter_tree(h, 3)
        h_lows = [(p.anchors[0], int(p.levels[0])) if len(p) else None for p in hp]
        h_highs = [(p.anchors[-1], int(p.levels[-1])) if len(p) else None for p in hp]
        for p in gp:
            if not len(p):
                continue
            my_lo = (p.anchors[0], int(p.levels[0]))
            my_hi = (p.anchors[-1], int(p.levels[-1]))
            reported = set(overlapping_ranks(my_lo, my_hi, h_lows, h_highs, 2))
            for q, hq in enumerate(hp):
                actual = False
                for i in range(len(p)):
                    ov = morton.overlaps(
                        p.anchors[i], p.levels[i], hq.anchors, hq.levels
                    )
                    if np.any(ov):
                        actual = True
                        break
                if actual:
                    assert q in reported

    def test_local_overlap_range(self):
        t = uniform_tree(2, 3)
        # Query: a level-1 octant should overlap exactly 16 level-3 leaves.
        half = 1 << (morton.MAX_DEPTH - 1)
        s, e = local_overlap_range(t, np.array([half, 0]), 1)
        assert e - s == 16
        ov = morton.overlaps(
            t.anchors[s:e], t.levels[s:e], np.array([half, 0]), 1
        )
        assert np.all(ov)

    def test_local_overlap_range_includes_ancestor(self):
        t = uniform_tree(2, 1)
        # Query a level-3 octant inside leaf 0: the coarse leaf is returned.
        s, e = local_overlap_range(t, np.array([0, 0]), 3)
        assert (s, e) == (0, 1)


class TestParCoarsen:
    def _check(self, tree, votes, nprocs):
        parts = scatter_tree(tree, nprocs)
        bounds = np.linspace(0, len(tree), nprocs + 1).astype(int)
        vparts = [votes[bounds[r] : bounds[r + 1]] for r in range(nprocs)]

        def fn(comm):
            return par_coarsen(comm, parts[comm.rank], vparts[comm.rank])

        outs = run_spmd(nprocs, fn)
        merged = Octree(
            np.concatenate([o.anchors for o in outs]),
            np.concatenate([o.levels for o in outs]),
            tree.dim,
        )
        expected = coarsen(tree, votes)
        # Global result equals serial coarsening, duplicates removed.
        dedup = merged.linearize()
        assert dedup == expected
        # No duplicates should exist at all after repartitioning.
        assert len(merged) == len(expected)

    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4])
    def test_family_split_across_ranks(self, nprocs):
        t = uniform_tree(2, 2)
        votes = np.ones(len(t), np.int64)
        self._check(t, votes, nprocs)

    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_aggressive_collapse_to_root(self, nprocs):
        t = uniform_tree(2, 3)
        votes = np.zeros(len(t), np.int64)
        self._check(t, votes, nprocs)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_votes(self, dim):
        t = random_leaf_tree(7, dim, max_level=3)
        rng = np.random.default_rng(8)
        votes = np.maximum(t.levels - rng.integers(0, 3, len(t)), 0)
        self._check(t, votes, 3)

    def test_no_coarsening(self):
        t = random_leaf_tree(9, 2)
        self._check(t, t.levels.copy(), 3)

    def test_incomplete_tree(self):
        from repro.octree.domain import BoxDomain

        dom = BoxDomain([0.0, 0.0], [0.6, 0.6])
        t = uniform_tree(2, 3, domain=dom)
        votes = np.maximum(t.levels - 2, 0)
        self._check(t, votes, 3)


class TestDistributedSortTree:
    def test_sorts_scattered_tree(self):
        t = random_leaf_tree(11, 2)
        rng = np.random.default_rng(12)
        perm = rng.permutation(len(t))
        chunks = np.array_split(perm, 4)
        parts = [
            Octree(t.anchors[c], t.levels[c], 2) for c in chunks
        ]

        def fn(comm):
            keys = kway_sort(comm, parts[comm.rank].keys(), k=2)
            return Octree(*morton.decode_key(keys, 2), 2, presorted=True)

        outs = run_spmd(4, fn)
        merged = Octree(
            np.concatenate([o.anchors for o in outs]),
            np.concatenate([o.levels for o in outs]),
            2,
            presorted=True,
        )
        assert merged == t


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 500), nprocs=st.sampled_from([2, 3]))
def test_property_par_coarsen_equals_serial(seed, nprocs):
    t = random_leaf_tree(seed, 2, max_level=3, p=0.5)
    rng = np.random.default_rng(seed + 1)
    votes = np.maximum(t.levels - rng.integers(0, 4, len(t)), 0)
    parts = scatter_tree(t, nprocs)
    bounds = np.linspace(0, len(t), nprocs + 1).astype(int)
    vparts = [votes[bounds[r] : bounds[r + 1]] for r in range(nprocs)]

    def fn(comm):
        return par_coarsen(comm, parts[comm.rank], vparts[comm.rank])

    outs = run_spmd(nprocs, fn)
    merged = Octree(
        np.concatenate([o.anchors for o in outs]),
        np.concatenate([o.levels for o in outs]),
        2,
    )
    assert merged == coarsen(t, votes)
