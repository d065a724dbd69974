"""Tests for the SPMD simulator: p2p, collectives, split, stats."""

import numpy as np
import pytest

from repro.mpi.comm import SpmdError, run_spmd
from repro.mpi.stats import CommStats, payload_bytes


class TestRunSpmd:
    def test_returns_per_rank_results(self):
        out = run_spmd(4, lambda c: c.rank * 10)
        assert out == [0, 10, 20, 30]

    def test_propagates_exceptions(self):
        def boom(comm):
            if comm.rank == 2:
                raise ValueError("kaboom")

        with pytest.raises(SpmdError, match="rank 2"):
            run_spmd(4, boom)

    def test_deadlock_detected(self):
        def hang(comm):
            comm.recv(source=(comm.rank + 1) % comm.size, tag=99)

        with pytest.raises(SpmdError):
            run_spmd(2, hang, timeout=0.5)

    def test_single_rank(self):
        assert run_spmd(1, lambda c: c.size) == [1]


class TestPointToPoint:
    def test_ring(self):
        def ring(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(np.array([comm.rank]), right, tag=1)
            got = comm.recv(left, tag=1)
            return int(got[0])

        out = run_spmd(5, ring)
        assert out == [4, 0, 1, 2, 3]

    def test_tag_matching(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("a", 1, tag=10)
                comm.send("b", 1, tag=20)
            else:
                # Receive out of order by tag.
                b = comm.recv(0, tag=20)
                a = comm.recv(0, tag=10)
                return a + b

        assert run_spmd(2, fn)[1] == "ab"

    def test_any_source(self):
        def fn(comm):
            if comm.rank == 0:
                vals = sorted(comm.recv() for _ in range(comm.size - 1))
                return vals
            comm.send(comm.rank, 0)

        assert run_spmd(4, fn)[0] == [1, 2, 3]


class TestCollectives:
    def test_allgather(self):
        out = run_spmd(3, lambda c: c.allgather(c.rank + 1))
        assert out == [[1, 2, 3]] * 3

    def test_allreduce_sum_arrays(self):
        def fn(comm):
            return comm.allreduce(np.full(3, comm.rank, dtype=np.int64))

        out = run_spmd(4, fn)
        for arr in out:
            assert np.array_equal(arr, np.full(3, 6))

    def test_allreduce_max_min(self):
        out = run_spmd(4, lambda c: (c.allreduce(c.rank, max), c.allreduce(c.rank, min)))
        assert out == [(3, 0)] * 4

    def test_exscan(self):
        out = run_spmd(4, lambda c: c.exscan(c.rank + 1))
        assert out == [None, 1, 3, 6]

    def test_alltoall(self):
        def fn(comm):
            return comm.alltoall([comm.rank * 10 + d for d in range(comm.size)])

        out = run_spmd(3, fn)
        assert out[0] == [0, 10, 20]
        assert out[2] == [2, 12, 22]

    def test_alltoallv_arrays(self):
        def fn(comm):
            sends = [np.arange(d, dtype=np.int64) + comm.rank for d in range(comm.size)]
            recv = comm.alltoallv(sends)
            return [r.tolist() for r in recv]

        out = run_spmd(3, fn)
        # Rank 1 receives arrays of length 1 from every source.
        assert out[1] == [[0], [1], [2]]

    def test_back_to_back_collectives(self):
        def fn(comm):
            acc = []
            for i in range(20):
                acc.append(comm.allreduce(i + comm.rank))
            return acc

        out = run_spmd(4, fn)
        assert out[0] == out[3]
        assert out[0][0] == 0 + 1 + 2 + 3

class TestSplit:
    def test_split_even_odd(self):
        def fn(comm):
            sub = comm.split(comm.rank % 2)
            total = sub.allreduce(comm.rank)
            return (sub.size, sub.rank, total)

        out = run_spmd(6, fn)
        for r, (size, subrank, total) in enumerate(out):
            assert size == 3
            assert subrank == r // 2
            assert total == (0 + 2 + 4 if r % 2 == 0 else 1 + 3 + 5)

    def test_split_undefined_color(self):
        def fn(comm):
            sub = comm.split(-1 if comm.rank == 0 else 0)
            if comm.rank == 0:
                return sub is None
            return sub.size

        out = run_spmd(3, fn)
        assert out == [True, 2, 2]

    def test_split_key_reorders(self):
        def fn(comm):
            sub = comm.split(0, key=-comm.rank)
            return sub.rank

        out = run_spmd(4, fn)
        assert out == [3, 2, 1, 0]

    def test_split_cached_avoids_resplit(self):
        def fn(comm):
            stats = comm.stats
            sub1 = comm.split_cached(comm.rank % 2, comm.rank, cache_tag="t")
            n1 = stats.snapshot()["comm_splits"]
            sub2 = comm.split_cached(comm.rank % 2, comm.rank, cache_tag="t")
            n2 = stats.snapshot()["comm_splits"]
            assert sub1 is sub2
            comm.barrier()
            return (n1, n2)

        out = run_spmd(4, fn)
        for n1, n2 in out:
            assert n2 == n1  # no additional split happened

    def test_successive_splits_are_independent(self):
        def fn(comm):
            a = comm.split(0)
            b = comm.split(0)
            peer = (a.rank + 1) % a.size
            a.send(1, peer, tag=1)
            b.send(2, peer, tag=2)
            # b's mailboxes hold only b's message: a wildcard receive on b
            # would return a's, sent first, if the two shared them.
            assert b.recv() == 2
            assert a.recv(peer, tag=1) == 1
            b.barrier()
            return True

        assert all(run_spmd(2, fn))


class TestStats:
    def test_payload_bytes(self):
        assert payload_bytes(np.zeros(10, np.float64)) == 80
        assert payload_bytes(None) == 0
        assert payload_bytes(3) == 8
        assert payload_bytes([np.zeros(2), np.zeros(3)]) == 40
        assert payload_bytes({"a": 1}) > 0

    def test_payload_bytes_width_aware_scalars(self):
        # NumPy scalars count their true width, not a flat 8 bytes.
        assert payload_bytes(np.float32(1.5)) == 4
        assert payload_bytes(np.float64(1.5)) == 8
        assert payload_bytes(np.int16(3)) == 2
        assert payload_bytes(np.int64(3)) == 8
        assert payload_bytes(np.uint8(3)) == 1
        # Booleans are 1 byte (bool is a subclass of int — order matters).
        assert payload_bytes(True) == 1
        assert payload_bytes(np.bool_(False)) == 1
        # Native Python numbers ship as 8-byte machine words.
        assert payload_bytes(3.25) == 8

    def test_payload_bytes_sparse_exchange_payloads(self):
        # The (ids, values) tuples the NBX ghost exchange puts on the wire.
        ids = np.arange(5, dtype=np.int64)
        vals = np.ones(5, dtype=np.float64)
        assert payload_bytes((ids, vals)) == 5 * 8 + 5 * 8
        # Mixed widths still sum exactly.
        assert payload_bytes((ids, vals.astype(np.float32))) == 40 + 20
        # Empty arrays are free.
        assert payload_bytes((np.empty(0, np.int64),)) == 0

    def test_payload_bytes_unpicklable_warns_not_silent(self):
        unpicklable = lambda: None  # noqa: E731 — local lambda can't pickle
        with pytest.warns(RuntimeWarning, match="unpicklable"):
            n = payload_bytes(unpicklable)
        assert n > 0

    def test_counters_accumulate(self):
        stats = CommStats()

        def fn(comm):
            comm.send(np.zeros(100), (comm.rank + 1) % comm.size)
            comm.recv()
            comm.allreduce(1)
            comm.barrier()

        run_spmd(4, fn, stats=stats)
        snap = stats.snapshot()
        assert snap["messages"] == 4
        assert snap["bytes_sent"] == 4 * 800
        assert snap["collectives"] == 4
        assert snap["barriers"] == 4
