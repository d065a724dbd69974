"""REPRO_SPMD_CHECK runtime checker: seeded collective mismatches are caught
on every backend with rank/call-site attribution, enabling checks never perturbs
CommStats (including on the equivalence-suite programs: ``split``
sub-communicators, NBX, the k-way sort and the ``src/`` SPMD entry points),
and the deadlock reporters agree structurally across backends."""

import time

import numpy as np
import pytest

from repro.analysis.runtime_check import CHECK_ENV, checks_enabled, force_checks
from repro.mpi.comm import SpmdError, run_spmd
from repro.mpi.stats import CommStats
from repro.runtime import ProcessBackend

from ..runtime.spmd_programs import EQUIVALENCE_PROGRAMS, program_args

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


def _equivalence_runs():
    """``(program, nranks, args)`` for every equivalence-suite program:
    the inputs here that drive the fingerprint checker through ``split``
    sub-communicators, NBX, the k-way sort and each ``src/`` SPMD entry
    point."""
    return [
        (fn, nranks, program_args(name, nranks))
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
        # allgather payloads legitimately differ by rank; only the op and
        # call site must agree.
        def program(comm):
            x = comm.allgather(np.arange(5.0) if comm.rank == 0 else None)[0]
            comm.allgather(np.zeros(comm.rank + 1))
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
