"""Cross-backend equivalence: thread, process, and serial backends must be
observationally identical — same per-rank results, same CommStats counters —
for p2p, collectives, NBX sparse exchange, and the distributed sorts.
"""

import numpy as np
import pytest

from repro.analysis.runtime_check import force_checks
from repro.mpi.comm import SpmdError, run_spmd
from repro.mpi.sparse_exchange import nbx_exchange
from repro.mpi.stats import CommStats
from repro.runtime import ProcessBackend, available_backends, resolve_backend

from .spmd_programs import (
    ENTRY_POINT_PROGRAMS,
    EQUIVALENCE_PROGRAMS,
    collectives_battery_program,
    distributed_sort_program,
    nbx_dense_program,
    p2p_ring_program,
    program_args,
    split_subcomm_program,
)

BACKENDS = ["thread", "serial"] + (
    ["process"] if ProcessBackend.is_available() else []
)


def run_all_backends(nprocs, fn, *args, timeout=60):
    """Run one SPMD program on every backend; return {name: (results, stats)}."""
    out = {}
    for name in BACKENDS:
        stats = CommStats()
        res = run_spmd(
            nprocs, fn, *args, timeout=timeout, stats=stats, backend=name
        )
        out[name] = (res, stats.snapshot())
    return out


def assert_equivalent(runs):
    ref_name = BACKENDS[0]
    ref_res, ref_stats = runs[ref_name]
    for name, (res, stats) in runs.items():
        np.testing.assert_equal(res, ref_res, err_msg=f"{name} vs {ref_name}")
        assert stats == ref_stats, f"{name} stats {stats} != {ref_name} {ref_stats}"


class TestEquivalence:
    def test_backends_registered(self):
        assert {"thread", "process", "serial"} <= set(available_backends())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_p2p_random_payloads(self, seed):
        rng = np.random.default_rng(seed)
        # One random payload per (src, dest) pair, fixed before the run so
        # every backend ships identical data.
        n = 4
        payloads = {
            (s, d): rng.standard_normal(int(rng.integers(1, 5000)))
            for s in range(n)
            for d in range(n)
            if s != d
        }
        assert_equivalent(run_all_backends(n, p2p_ring_program, payloads))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_collectives_battery(self, seed):
        rng = np.random.default_rng(seed)
        vecs = [rng.standard_normal(8) for _ in range(4)]
        assert_equivalent(run_all_backends(4, collectives_battery_program, vecs))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_nbx_and_dense_exchange(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        outgoing = [
            {
                int(d): rng.standard_normal(int(rng.integers(1, 3000)))
                for d in rng.choice(n, size=int(rng.integers(0, n)), replace=False)
            }
            for _ in range(n)
        ]
        assert_equivalent(run_all_backends(n, nbx_dense_program, outgoing))

    @pytest.mark.parametrize("sorter,k", [("sample", 0), ("kway", 2)])
    def test_distributed_sort(self, sorter, k):
        rng = np.random.default_rng(42)
        data = [
            rng.integers(0, 2**60, 800).astype(np.uint64) for _ in range(8)
        ]
        assert_equivalent(
            run_all_backends(8, distributed_sort_program, data, sorter, k)
        )

    def test_split_and_subcomm_traffic(self):
        assert_equivalent(run_all_backends(6, split_subcomm_program))

    @pytest.mark.parametrize("name", ENTRY_POINT_PROGRAMS)
    def test_src_entry_point_under_checks(self, name):
        # Checks on: a rank-divergent collective inside the entry point
        # raises on every backend, and the results and CommStats still
        # agree bit for bit.
        fn, nranks = EQUIVALENCE_PROGRAMS[name]
        with force_checks(True):
            runs = run_all_backends(nranks, fn, *program_args(name, nranks))
        assert_equivalent(runs)


def _mutate_received(comm, payload):
    # Seeded bug: the receiver scales the received array in place.  On the
    # zero-copy thread transport that array is the sender's own buffer.
    buf = payload.copy()
    if comm.rank == 0:
        comm.send(buf, dest=1)
    else:
        got = comm.recv(source=0)
        got *= 2.0
    comm.barrier()
    return buf


def _mutate_collective_result(comm, vecs):
    # Seeded bug: one rank edits the allreduce result every rank shares on
    # the thread transport.
    total = comm.allreduce(vecs[comm.rank])
    if comm.rank == 1:
        total[0] += 1.0
    comm.barrier()
    return total.copy()


@pytest.mark.skipif(
    not ProcessBackend.is_available(), reason="fork not available"
)
class TestAliasing:
    """A rank that mutates a buffer it shares on the zero-copy thread
    transport returns a different result there than on the copying process
    backend, so the equivalence comparison flags it with no annotation in
    the program."""

    def _thread_vs_process(self, nprocs, fn, *args):
        return {
            name: (run_spmd(nprocs, fn, *args, backend=name, timeout=60), None)
            for name in ("thread", "process")
        }

    def test_seeded_p2p_mutation_is_flagged(self):
        payload = np.random.default_rng(11).standard_normal(64)
        runs = self._thread_vs_process(2, _mutate_received, payload)
        np.testing.assert_array_equal(runs["process"][0][0], payload)
        np.testing.assert_array_equal(runs["thread"][0][0], 2.0 * payload)
        with pytest.raises(AssertionError):
            assert_equivalent(runs)

    def test_seeded_collective_result_mutation_is_flagged(self):
        rng = np.random.default_rng(12)
        vecs = [rng.standard_normal(8) for _ in range(3)]
        runs = self._thread_vs_process(3, _mutate_collective_result, vecs)
        assert runs["process"][0][0][0] != runs["thread"][0][0][0]
        with pytest.raises(AssertionError):
            assert_equivalent(runs)


class TestProcessBackend:
    @pytest.mark.skipif(
        not ProcessBackend.is_available(), reason="fork not available"
    )
    def test_nbx_delivery_under_repeated_rounds(self):
        """Regression: NBX must never drop an in-flight message.

        The ibarrier implementation must keep arrival records ordered
        behind the sender's earlier user messages (per-producer queue
        FIFO); a root-counted completion broadcast once lost messages by
        overtaking them.  Many quick rounds widen the race window.
        """
        n = 5
        plans = []
        rng = np.random.default_rng(3)
        for _ in range(30):
            plans.append([
                {
                    int(d): rng.standard_normal(int(rng.integers(1, 50)))
                    for d in rng.choice(
                        n, size=int(rng.integers(0, n)), replace=False
                    )
                }
                for _ in range(n)
            ])
        expected = [
            [sorted(s for s, out in enumerate(round_) if r in out)
             for r in range(n)]
            for round_ in plans
        ]

        def fn(comm):
            got = []
            for round_ in plans:
                got.append(sorted(nbx_exchange(comm, round_[comm.rank])))
            return got

        results = run_spmd(n, fn, backend="process", timeout=120)
        for r in range(n):
            assert results[r] == [exp[r] for exp in expected]

    @pytest.mark.skipif(
        not ProcessBackend.is_available(), reason="fork not available"
    )
    @pytest.mark.parametrize("case", ["contiguous", "strided", "dict"])
    def test_payload_arrives_intact(self, case):
        # A 1.6 MB array, a strided view and a dict of arrays each reach
        # the receiver equal in values, dtype and shape.
        payload = {
            "contiguous": np.random.default_rng(0).standard_normal((200, 1000)),
            "strided": np.arange(400_000, dtype=np.int64)[::2],
            "dict": {"x": np.arange(4), "y": [np.zeros(2), np.ones((3, 2))]},
        }[case]

        def fn(comm):
            if comm.rank == 0:
                comm.send(payload, 1, tag=2)
                return None
            return comm.recv(source=0, tag=2)

        got = run_spmd(2, fn, backend="process", timeout=60)[1]

        def arrays(p):
            return [p["x"], *p["y"]] if case == "dict" else [p]

        if case == "dict":
            assert got.keys() == payload.keys()
        for a, b in zip(arrays(got), arrays(payload), strict=True):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            np.testing.assert_array_equal(a, b)

    @pytest.mark.skipif(
        not ProcessBackend.is_available(), reason="fork not available"
    )
    def test_rank_failure_reported(self):
        def boom(comm):
            if comm.rank == 1:
                raise ValueError("kaboom in child")
            comm.barrier()

        with pytest.raises(SpmdError, match="rank 1.*kaboom"):
            run_spmd(2, boom, backend="process", timeout=30)

    @pytest.mark.skipif(
        not ProcessBackend.is_available(), reason="fork not available"
    )
    def test_deadlock_names_blocked_operation(self):
        with pytest.raises(SpmdError, match="timed out|deadlock"):
            run_spmd(
                2,
                lambda c: c.recv(source=1 - c.rank, tag=9),
                backend="process",
                timeout=2,
            )

    @pytest.mark.skipif(
        not ProcessBackend.is_available(), reason="fork not available"
    )
    def test_infn_stats_are_global_live_view(self):
        def fn(comm):
            comm.send(np.zeros(100), (comm.rank + 1) % comm.size)
            comm.recv()
            comm.barrier()  # all sends/recvs done everywhere
            return comm.stats.snapshot()["messages"]

        res = run_spmd(4, fn, backend="process", timeout=60)
        assert res == [4, 4, 4, 4]


@pytest.mark.parametrize("backend", BACKENDS)
def test_recv_cycle_report_names_both_ranks(backend):
    # Every backend's hang report carries the one world's wait
    # descriptions, one line per rank.
    with pytest.raises(SpmdError) as ei:
        run_spmd(
            2,
            lambda c: c.recv(source=1 - c.rank, tag=9),
            backend=backend,
            timeout=1.5,
        )
    msg = str(ei.value)
    assert msg.count("per-rank state:") == 1
    assert msg.count("rank 0: recv(source=1, tag=9)") == 1
    assert msg.count("rank 1: recv(source=0, tag=9)") == 1
    if backend != "process":  # in-process: found from structure, no timeout
        assert "SPMD deadlock" in msg and "timed out" not in msg


@pytest.mark.parametrize("backend", BACKENDS)
def test_nbx_drain_that_never_completes_reports_its_wait(backend):
    # Rank 1 never enters the exchange, so rank 0's drain waits for a
    # barrier that cannot complete: it is found stuck (process: times out)
    # naming the message it probes for and the barrier it waits on, next
    # to rank 1's recv.
    def fn(comm):
        if comm.rank == 0:
            nbx_exchange(comm, {1: b"m"})
        else:
            comm.recv(source=0, tag=9)

    with pytest.raises(SpmdError) as ei:
        run_spmd(2, fn, backend=backend, timeout=1.5)
    msg = str(ei.value)
    assert "per-rank state:" in msg
    assert ("rank 0: probe(source=-1, tag=7772) until ibarrier ('nbx', 1) "
            "on comm of size 2") in msg
    assert "rank 1: recv(source=0, tag=9) on comm of size 2" in msg


def _recv_cycle(comm):
    return comm.recv(source=1 - comm.rank, tag=9)


def test_thread_recv_cycle_report_has_no_race():
    # Both ranks' lines, every time: the report is filed by the wait that
    # closes the cycle while its peer still waits, not by whichever rank's
    # clock runs out first.
    misses = 0
    for _ in range(200):
        with pytest.raises(SpmdError) as ei:
            run_spmd(2, _recv_cycle, backend="thread", timeout=0.2)
        msg = str(ei.value)
        misses += not (
            "rank 0: recv(source=1, tag=9)" in msg
            and "rank 1: recv(source=0, tag=9)" in msg
        )
    assert misses == 0


@pytest.mark.parametrize("backend", ["thread", "serial"])
def test_recv_cycle_is_found_before_the_timeout(backend):
    # A timeout path could only report "timed out" here.
    with pytest.raises(SpmdError, match=r"SPMD deadlock \(all ranks blocked\)"):
        run_spmd(2, _recv_cycle, backend=backend, timeout=30)


@pytest.mark.parametrize("backend", BACKENDS)
def test_rank_that_returns_without_sending_closes_the_cycle(backend):
    # Rank 1's exit is what leaves every live rank blocked (process: rank
    # 0's wait times out, and the board says rank 1 has returned).
    def fn(comm):
        if comm.rank == 0:
            comm.recv(source=1, tag=9)

    timeout = 1.5 if backend == "process" else 30
    with pytest.raises(SpmdError) as ei:
        run_spmd(2, fn, backend=backend, timeout=timeout)
    msg = str(ei.value)
    if backend != "process":
        assert "SPMD deadlock (all ranks blocked)" in msg
    assert "rank 0: recv(source=1, tag=9) on comm of size 2" in msg
    assert "rank 1: finished" in msg


def test_thread_world_under_fast_switching():
    # More rank threads than cores and a 1 us switch interval: a lost update
    # in the shared world (a message, a barrier arrival, a contribution or a
    # sub-world built twice) shows as a wrong sum or source set, or a hang.
    import sys

    def fn(comm):
        half = comm.split(comm.rank % 2)
        got = []
        for i in range(400):
            out = {(comm.rank + k) % comm.size: i for k in (1, 3)}
            srcs = sorted(nbx_exchange(comm, out))
            got.append((srcs, comm.allreduce(comm.rank + i), half.allreduce(1)))
        return got

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        res = run_spmd(8, fn, backend="thread", timeout=20)
    finally:
        sys.setswitchinterval(old)
    for r, got in enumerate(res):
        for i, (srcs, total, half_size) in enumerate(got):
            assert srcs == sorted({(r - k) % 8 for k in (1, 3)})
            assert total == sum(range(8)) + 8 * i
            assert half_size == 4


class TestSerialBackend:
    def test_two_runs_identical(self):
        def fn(comm):
            # ANY_SOURCE receive order is schedule-dependent: a determinism
            # probe, not just a value check.
            if comm.rank == 0:
                return [comm.recv() for _ in range(comm.size - 1)]
            comm.send(comm.rank, 0)

        a = run_spmd(4, fn, backend="serial", timeout=30)
        b = run_spmd(4, fn, backend="serial", timeout=30)
        assert a == b

    def test_structural_deadlock_report(self):
        with pytest.raises(SpmdError, match="rank 0: recv"):
            run_spmd(
                2,
                lambda c: c.recv(source=1 - c.rank, tag=9),
                backend="serial",
                timeout=30,
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rank_failure(self, backend):
        # The failure is reported, not the deadlock it leaves its peers in.
        def boom(comm):
            if comm.rank == 2:
                raise ValueError("kaboom")
            comm.barrier()

        with pytest.raises(SpmdError, match="rank 2 failed: .*kaboom"):
            run_spmd(4, boom, backend=backend, timeout=30)


class TestSelection:
    def test_explicit_beats_env(self):
        assert resolve_backend("process").name == "process"
        assert resolve_backend("serial").name == "serial"
        # One instance per name; no name means the thread backend.
        assert resolve_backend(None) is resolve_backend("thread")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown SPMD backend"):
            run_spmd(2, lambda c: c.rank, backend="bogus")

    def test_thread_timeout_dumps_stacks(self):
        import time

        def stuck(comm):
            if comm.rank == 0:
                comm.barrier()
            else:
                time.sleep(30)

        with pytest.raises(SpmdError, match="rank 1 stack"):
            run_spmd(2, stuck, backend="thread", timeout=1.5)


class TestObsCrossBackend:
    """The repro.obs tracing layer must be schedule-independent: identical
    span trees and counter values on every backend (timings excluded)."""

    def _traced_run(self, nprocs, fn, *args):
        from repro import obs

        out = {}
        for name in BACKENDS:
            with obs.tracing():
                res = run_spmd(nprocs, fn, *args, timeout=120, backend=name)
                report = obs.last_spmd_report()
            out[name] = (res, report)
        return out

    def test_distributed_matvec_traces_identical(self):
        from repro.fem.operators import mass_matrix, stiffness_matrix
        from repro.mesh.distributed import DistributedField
        from repro.mesh.mesh import Mesh
        from repro.octree.build import uniform_tree

        mesh = Mesh.from_tree(uniform_tree(2, 3))
        Ke = stiffness_matrix(mesh.elem_h(), 2) + mass_matrix(mesh.elem_h(), 2)
        u = np.random.default_rng(5).standard_normal(mesh.n_dofs)

        def fn(comm):
            df = DistributedField(comm, mesh)
            out = df.matvec(Ke[df.elem_lo : df.elem_hi], df.from_global(u))
            return df.to_global(out)

        runs = self._traced_run(3, fn)
        ref_name = BACKENDS[0]
        ref_res, ref_report = runs[ref_name]
        ref_sig = ref_report.span_tree_signature()
        assert any(p.startswith("ghost.read") for p in ref_report.spans)
        # one ghost read per rank, wherever the span nests
        reads = [counts for path, counts in ref_sig
                 if path.rsplit("/", 1)[-1] == "ghost.read"]
        assert sum(map(sum, reads)) == 3
        for name, (res, report) in runs.items():
            for r, rr in zip(res, ref_res):
                np.testing.assert_array_equal(r, rr, err_msg=name)
            assert report.span_tree_signature() == ref_sig, name

    @pytest.mark.slow
    def test_chns_step_remesh_traces_identical(self):
        """One CHNS step + remesh per rank: bit-identical field state and
        identical span trees / counters across serial, thread, process."""
        from repro.amr.driver import RemeshConfig
        from repro.chns.initial_conditions import drop
        from repro.chns.params import CHNSParams
        from repro.chns.timestepper import CHNSTimeStepper, no_slip_bc
        from repro.mesh.mesh import mesh_from_field
        from repro.obs import flatten_spans

        prm = CHNSParams(Re=10.0, We=1.0, Pe=100.0, Cn=0.1)

        def phi0(x):
            return drop(x, (0.5, 0.5), 0.25, prm.Cn)

        def fn(comm):
            mesh = mesh_from_field(
                phi0, 2, max_level=4, min_level=2, threshold=0.95
            )
            ts = CHNSTimeStepper(
                mesh,
                prm,
                velocity_bc=no_slip_bc,
                remesh_config=RemeshConfig(
                    coarse_level=2, interface_level=4, feature_level=4
                ),
                remesh_every=1,
            )
            ts.initialize(phi0)
            ts.step(1e-3)
            ts.step(1e-3)  # triggers the remesh branch
            return ts.phi, ts.p, ts.vel

        runs = self._traced_run(2, fn)
        ref_name = BACKENDS[0]
        ref_res, ref_report = runs[ref_name]
        ref_sig = ref_report.span_tree_signature()
        paths = set(ref_report.spans)
        assert "chns.step" in paths
        assert "chns.step/chns.remesh/remesh/remesh.balance" in paths
        assert [flatten_spans(s)["chns.step"]["count"]
                for s in ref_report.snapshots] == [2, 2]  # steps per rank
        for name, (res, report) in runs.items():
            for rank_out, rank_ref in zip(res, ref_res):
                for a, b in zip(rank_out, rank_ref):
                    np.testing.assert_array_equal(a, b, err_msg=name)
            assert report.span_tree_signature() == ref_sig, name


class TestDeterministicPeerOrder:
    def test_regression_fixed_sites_stay_sorted(self):
        # NBX delivery order is schedule-dependent, so peer loops in the
        # exchanges and the octree reductions iterate in sorted order; that
        # is what keeps results bitwise equal across backends.
        import inspect

        from repro.mpi import sparse_exchange
        from repro.octree import parbalance, parcoarsen

        assert "sorted(outgoing.items())" in inspect.getsource(
            sparse_exchange.dense_exchange
        )
        assert "sorted(outgoing.items())" in inspect.getsource(
            sparse_exchange.nbx_exchange
        )
        assert "sorted(incoming.items())" in inspect.getsource(
            parbalance.par_balance
        )
        assert "sorted(incoming)" in inspect.getsource(parcoarsen.par_coarsen)


def test_stats_merge():
    """The recorder counts the same into its own slots and into the shared
    array the process backend gives it, and loses no update when threads
    record at once."""
    import multiprocessing as mp
    import sys
    import threading

    for slots in (None, mp.Array("q", len(CommStats.FIELDS))):
        a = CommStats()
        a.record_p2p(10)
        b = CommStats(slots)
        b.record_p2p(5)
        b.record_barrier()
        b.record_collective(7)
        b.record_split()
        assert b.snapshot() == {
            "messages": 1, "bytes_sent": 5, "collectives": 1,
            "collective_bytes": 7, "barriers": 1, "comm_splits": 1,
        }
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["messages"] == 2
        assert snap["bytes_sent"] == 15
        assert snap["barriers"] == 1
        assert snap["collective_bytes"] == 7

        busy = CommStats(mp.Array("q", len(CommStats.FIELDS))
                         if slots is not None else None)
        threads = [
            threading.Thread(target=lambda: [busy.record_p2p(3)
                                             for _ in range(2000)])
            for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        snap = busy.snapshot()
        assert (snap["messages"], snap["bytes_sent"]) == (8000, 24000)
