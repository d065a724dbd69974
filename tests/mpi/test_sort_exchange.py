"""Tests for distributed sorting, NBX exchange, and hierarchical staging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.comm import run_spmd
from repro.mpi.hierarchical import kway_stage_comms
from repro.mpi.sort import is_globally_sorted, kway_sort, sample_sort
from repro.mpi.sparse_exchange import dense_exchange, nbx_exchange
from repro.mpi.stats import CommStats


def _global_sort_check(nprocs, sorter, seed=0, n_per_rank=200, **kw):
    rng = np.random.default_rng(seed)
    data = [
        rng.integers(0, 10**6, size=rng.integers(0, n_per_rank)).astype(np.uint64)
        for _ in range(nprocs)
    ]

    def fn(comm):
        out = sorter(comm, data[comm.rank], **kw)
        assert is_globally_sorted(comm, out)
        return out

    outs = run_spmd(nprocs, fn)
    merged = np.concatenate(outs)
    expect = np.sort(np.concatenate(data))
    assert np.array_equal(merged, expect)


class TestSampleSort:
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 7])
    def test_sorts_globally(self, nprocs):
        _global_sort_check(nprocs, sample_sort, seed=nprocs)

    def test_with_payload(self):
        rng = np.random.default_rng(3)
        keys = [rng.permutation(100).astype(np.uint64) * 4 + r for r in range(4)]

        def fn(comm):
            k, p = sample_sort(comm, keys[comm.rank], keys[comm.rank] * 2)
            assert np.array_equal(p, k * 2)  # payload follows its key
            return k

        outs = run_spmd(4, fn)
        merged = np.concatenate(outs)
        assert np.array_equal(merged, np.sort(np.concatenate(keys)))

    def test_empty_ranks(self):
        data = [np.arange(50, dtype=np.uint64), np.zeros(0, np.uint64)]

        def fn(comm):
            return sample_sort(comm, data[comm.rank])

        outs = run_spmd(2, fn)
        assert np.array_equal(np.concatenate(outs), np.arange(50, dtype=np.uint64))

    def test_duplicates(self):
        data = [np.full(100, 7, np.uint64), np.full(100, 7, np.uint64)]
        outs = run_spmd(2, lambda c: sample_sort(c, data[c.rank]))
        assert len(np.concatenate(outs)) == 200


class TestKwaySort:
    @pytest.mark.parametrize("nprocs,k", [(4, 2), (8, 2), (8, 3), (6, 128)])
    def test_sorts_globally(self, nprocs, k):
        _global_sort_check(nprocs, kway_sort, seed=nprocs * 10 + k, k=k)

    def test_payload_follows(self):
        rng = np.random.default_rng(9)
        keys = [rng.permutation(64).astype(np.uint64) + 64 * r for r in range(8)]

        def fn(comm):
            k, p = kway_sort(comm, keys[comm.rank], keys[comm.rank] + 1, k=2)
            assert np.array_equal(p, k + 1)
            return k

        outs = run_spmd(8, fn)
        assert np.array_equal(
            np.concatenate(outs), np.sort(np.concatenate(keys))
        )

    def test_ladder_memoized(self):
        def fn(comm):
            l1 = kway_stage_comms(comm, 2)
            before = comm.stats.snapshot()["comm_splits"]
            l2 = kway_stage_comms(comm, 2)
            after = comm.stats.snapshot()["comm_splits"]
            assert l1 is l2
            comm.barrier()
            return after - before

        out = run_spmd(8, fn)
        assert all(d == 0 for d in out)

    def test_ladder_depth(self):
        def fn(comm):
            return len(kway_stage_comms(comm, 2))

        # 8 ranks, k=2 -> stages of sizes 8 -> 4 -> 2: depth 2 splits.
        out = run_spmd(8, fn)
        assert all(d == 2 for d in out)


class TestSparseExchange:
    @pytest.mark.parametrize("exchange", [dense_exchange, nbx_exchange])
    def test_delivers_same_messages(self, exchange):
        def fn(comm):
            # Sparse pattern: talk to rank+1 and rank+3 only.
            outgoing = {
                (comm.rank + 1) % comm.size: np.array([comm.rank, 1]),
                (comm.rank + 3) % comm.size: np.array([comm.rank, 3]),
            }
            got = exchange(comm, outgoing)
            comm.barrier()
            return {src: tuple(v) for src, v in got.items()}

        out = run_spmd(8, fn)
        for r, got in enumerate(out):
            assert got[(r - 1) % 8] == ((r - 1) % 8, 1)
            assert got[(r - 3) % 8] == ((r - 3) % 8, 3)
            assert len(got) == 2

    def test_nbx_empty_pattern(self):
        out = run_spmd(4, lambda c: nbx_exchange(c, {}))
        assert out == [{}] * 4

    def test_nbx_repeated_calls(self):
        def fn(comm):
            a = nbx_exchange(comm, {(comm.rank + 1) % comm.size: "x"})
            b = nbx_exchange(comm, {(comm.rank + 2) % comm.size: "y"})
            return (sorted(a), sorted(b))

        out = run_spmd(4, fn)
        for r, (a, b) in enumerate(out):
            assert a == [(r - 1) % 4]
            assert b == [(r - 2) % 4]

    def test_nbx_rounds_leave_no_barrier_arrivals(self):
        """A rank drops a barrier's arrival count once the barrier has
        completed there: 500 rounds leave no key behind (one per round
        stayed for the communicator's life before)."""
        def fn(comm):
            for i in range(500):
                nbx_exchange(comm, {(comm.rank + 1 + i % 3) % comm.size: i})
            return len(comm._world._arrivals[comm.rank])

        assert run_spmd(4, fn, backend="thread") == [0] * 4

    def test_nbx_cheaper_than_dense_for_sparse_pattern(self):
        """The paper's point: dense Alltoall costs Omega(p) per rank even
        when the pattern is sparse; NBX costs only the actual messages."""
        s_dense, s_nbx = CommStats(), CommStats()

        def fn_d(comm):
            dense_exchange(comm, {(comm.rank + 1) % comm.size: b"m"})
            comm.barrier()

        def fn_n(comm):
            nbx_exchange(comm, {(comm.rank + 1) % comm.size: b"m"})
            comm.barrier()

        run_spmd(16, fn_d, stats=s_dense)
        run_spmd(16, fn_n, stats=s_nbx)
        # Dense adds an alltoall collective with p entries per rank.
        assert s_dense.snapshot()["collective_bytes"] > s_nbx.snapshot()["collective_bytes"]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000), nprocs=st.sampled_from([2, 3, 5]))
def test_property_sample_sort_random(seed, nprocs):
    _global_sort_check(nprocs, sample_sort, seed=seed, n_per_rank=60)
