"""REPRO_SPMD_CHECK runtime checkers: seeded collective mismatches are caught
on every backend with rank/call-site attribution, seeded ghost-buffer races
are caught on the zero-copy thread backend, enabling checks never perturbs
CommStats (including on the equivalence-suite programs: ``split``
sub-communicators, NBX, the k-way sort), and the deadlock reporters agree
structurally across backends."""

import time

import numpy as np
import pytest

from repro.analysis.runtime_check import (
    CHECK_ENV,
    BufferTracker,
    SharedBufferRaceError,
    checks_enabled,
    force_checks,
    note_buffer_write,
)
from repro.mpi.comm import SpmdError, run_spmd
from repro.mpi.stats import CommStats
from repro.runtime import ProcessBackend

from ..runtime.spmd_programs import EQUIVALENCE_PROGRAMS

BACKENDS = ["thread", "serial"] + (
    ["process"] if ProcessBackend.is_available() else []
)


def _mismatched_op(comm):
    # Seeded bug: rank 0 calls a different collective than its peers.
    if comm.rank == 0:  # deliberately rank-divergent: this fixture exists to trip the checker
        comm.allreduce(1)
    else:
        comm.barrier()


def _mismatched_site(comm):
    # Same op, different call sites: ranks drifted out of lockstep.
    if comm.rank == 0:  # deliberately rank-divergent: this fixture exists to trip the checker
        comm.barrier()
    else:
        comm.barrier()


def _mismatched_signature(comm):
    # Symmetric collective with per-rank payload shapes.
    comm.allreduce(np.zeros(comm.rank + 1))


def _matched(comm):
    comm.barrier()
    total = comm.allreduce(comm.rank)
    return comm.allgather(total)


def _program_args(name, nranks, seed=0):
    """The same input shapes the equivalence suite feeds each program."""
    rng = np.random.default_rng(seed)
    if name == "tests.p2p_ring":
        return (
            {
                (s, d): rng.standard_normal(int(rng.integers(1, 200)))
                for s in range(nranks)
                for d in range(nranks)
                if s != d
            },
        )
    if name == "tests.collectives_battery":
        return ([rng.standard_normal(8) for _ in range(nranks)],)
    if name == "tests.nbx_dense_exchange":
        return (
            [
                {
                    int(d): rng.standard_normal(int(rng.integers(1, 100)))
                    for d in rng.choice(
                        nranks, size=int(rng.integers(0, nranks)), replace=False
                    )
                }
                for _ in range(nranks)
            ],
        )
    if name == "tests.distributed_sort":
        data = [
            rng.integers(0, 2**60, 200).astype(np.uint64)
            for _ in range(nranks)
        ]
        return (data, "kway", 2)
    if name == "tests.split_subcomm_traffic":
        return ()
    raise AssertionError(f"no args builder for {name}")


def _equivalence_runs():
    """``(program, nranks, args)`` for the five equivalence-suite programs:
    the only inputs here that drive the fingerprint checker through
    ``split`` sub-communicators, NBX and the k-way sort."""
    return [
        (fn, nranks, _program_args(name, nranks))
        for name, (fn, nranks) in sorted(EQUIVALENCE_PROGRAMS.items())
    ]


class TestCollectiveMatching:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_op_mismatch_caught_with_attribution(self, backend):
        with force_checks(True):
            with pytest.raises(SpmdError) as ei:
                run_spmd(3, _mismatched_op, backend=backend, timeout=30)
        msg = str(ei.value)
        assert "collective mismatch" in msg
        # Rank attribution: the two divergence classes are named per rank,
        # with call sites pointing into this file.
        assert "rank 0: allreduce" in msg
        assert "rank 1: barrier" in msg
        assert "test_runtime_checkers.py:" in msg
        assert "diverging ranks (vs rank 0): [1, 2]" in msg

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_call_site_mismatch_caught(self, backend):
        with force_checks(True):
            with pytest.raises(SpmdError) as ei:
                run_spmd(2, _mismatched_site, backend=backend, timeout=30)
        assert "collective mismatch" in str(ei.value)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_symmetric_signature_mismatch_caught(self, backend):
        with force_checks(True):
            with pytest.raises(SpmdError) as ei:
                run_spmd(2, _mismatched_signature, backend=backend, timeout=30)
        msg = str(ei.value)
        assert "collective mismatch" in msg
        assert "ndarray" in msg

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matched_program_passes(self, backend):
        with force_checks(True):
            res = run_spmd(3, _matched, backend=backend, timeout=30)
        assert res == [[3, 3, 3]] * 3
        for fn, nranks, args in _equivalence_runs():
            with force_checks(True):
                res = run_spmd(nranks, fn, *args, backend=backend, timeout=120)
            assert len(res) == nranks, fn.__name__

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_asymmetric_payloads_allowed(self, backend):
        # bcast/gather payloads legitimately differ by rank; only the op and
        # call site must agree.
        def program(comm):
            x = comm.bcast(np.arange(5.0) if comm.rank == 0 else None)
            comm.gather(np.zeros(comm.rank + 1))
            return float(x.sum())

        with force_checks(True):
            res = run_spmd(3, program, backend=backend, timeout=30)
        assert res == [10.0, 10.0, 10.0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stats_invariant_under_checks(self, backend):
        # The fingerprint rendezvous bypasses CommStats: enabling checks
        # must not move any counter the equivalence tests pin down.
        for fn, nranks, args in [(_matched, 3, ())] + _equivalence_runs():
            snaps = []
            for enabled in (False, True):
                stats = CommStats()
                with force_checks(enabled):
                    run_spmd(
                        nranks, fn, *args, backend=backend, stats=stats, timeout=120
                    )
                snaps.append(stats.snapshot())
            assert snaps[0] == snaps[1], fn.__name__

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(CHECK_ENV, raising=False)
        assert not checks_enabled()

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv(CHECK_ENV, "1")
        assert checks_enabled()
        monkeypatch.setenv(CHECK_ENV, "0")
        assert not checks_enabled()


def _seeded_race(comm):
    # Seeded bug: mutate a collective result that every rank aliases on the
    # zero-copy transport, with no barrier separating the accesses.
    arr = comm.bcast(np.zeros(8) if comm.rank == 0 else None)
    if comm.rank == 1:
        note_buffer_write(comm, arr)
        arr[0] = 1.0
    comm.barrier()
    return True


def _p2p_race(comm):
    # Receiver mutates the payload the sender still owns.
    if comm.rank == 0:
        comm.send(np.zeros(4), dest=1)
        comm.barrier()
    else:
        buf = comm.recv(source=0)
        note_buffer_write(comm, buf)
        buf[0] = 1.0
        comm.barrier()


def _barrier_separates(comm):
    # Writing after a barrier is properly synchronized: a new epoch begins,
    # so the earlier reads cannot race the write.
    arr = comm.bcast(np.zeros(8) if comm.rank == 0 else None)
    comm.barrier()
    if comm.rank == 1:
        note_buffer_write(comm, arr)
        arr[0] = 1.0
    return True


class TestRaceDetector:
    def test_seeded_collective_result_race_caught(self):
        with force_checks(True):
            with pytest.raises(SpmdError) as ei:
                run_spmd(3, _seeded_race, backend="thread", timeout=30)
        msg = str(ei.value)
        assert "shared-buffer race" in msg
        assert "rank 1 write" in msg
        # Both access stacks point at user code.
        assert "test_runtime_checkers.py" in msg

    def test_seeded_p2p_race_caught(self):
        with force_checks(True):
            with pytest.raises(SpmdError) as ei:
                run_spmd(2, _p2p_race, backend="thread", timeout=30)
        msg = str(ei.value)
        assert "shared-buffer race" in msg
        assert "write" in msg and "send" in msg

    def test_barrier_synchronizes(self):
        with force_checks(True):
            res = run_spmd(3, _barrier_separates, backend="thread", timeout=30)
        assert res == [True, True, True]

    @pytest.mark.parametrize(
        "backend",
        ["serial"] + (["process"] if ProcessBackend.is_available() else []),
    )
    def test_noop_on_copying_backends(self, backend):
        # Serial/process transports don't share live buffers between ranks
        # the way the thread backend does; note_buffer_write is a no-op.
        with force_checks(True):
            res = run_spmd(3, _seeded_race, backend=backend, timeout=30)
        assert res == [True, True, True]

    def test_race_not_raised_when_disabled(self):
        with force_checks(False):
            res = run_spmd(3, _seeded_race, backend="thread", timeout=30)
        assert res == [True, True, True]

    def test_view_aliases_same_buffer(self):
        # Accesses through views collapse to the base buffer.
        tracker = BufferTracker()
        base = np.zeros(16)
        tracker.record(base[2:8], 0, "recv")
        with pytest.raises(SharedBufferRaceError):
            tracker.record(base.reshape(4, 4)[1], 1, "write")

    def test_epoch_bump_clears_conflicts(self):
        tracker = BufferTracker()
        base = np.zeros(16)
        tracker.record(base, 0, "recv")
        tracker.bump_epoch()
        tracker.record(base, 1, "write")  # different epoch: ordered
        assert tracker.races_detected == 0


def _hang(comm):
    if comm.rank == 0:  # deliberately rank-divergent: this fixture tests the deadlock reporter
        comm.recv(source=1, tag=99)  # never sent
    comm.barrier()


def _sleeper(comm):
    # Never blocks on communication: only the wall timeout can stop it.  Long
    # enough to outlast the process backend's timeout + 2 s parent backstop.
    time.sleep(3.0)


class TestDeadlockReporterParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_per_rank_state_table(self, backend):
        with pytest.raises(SpmdError) as ei:
            run_spmd(2, _hang, backend=backend, timeout=4)
        msg = str(ei.value)
        assert "per-rank state:" in msg
        assert "rank 0:" in msg and "rank 1:" in msg
        # Rank 0 is blocked in the unmatched recv; the table names it.
        assert "recv(source=1, tag=99)" in msg
        # The wall-timeout path (no rank blocked) emits the same table.
        with pytest.raises(SpmdError) as ei:
            run_spmd(2, _sleeper, backend=backend, timeout=0.2)
        msg = str(ei.value)
        assert "timed out after 0.2s" in msg
        assert "per-rank state:\n  rank 0: " in msg and "\n  rank 1: " in msg
