"""In-process SPMD communicator.

The paper's algorithms are MPI programs.  This module provides a faithful
shared-nothing-in-spirit simulator: :func:`run_spmd` runs one simulated rank
per thread, OS process, or scheduler slot (see :mod:`repro.runtime`), and
each rank talks to the others only through a :class:`Comm` whose semantics
mirror mpi4py.  It carries what the octree, mesh, batch and obs layers call:
``send/recv``, ``gather``/``allgather``, ``allreduce``/``exscan``,
``alltoallv``, ``split`` with memoization, and the non-blocking barrier
with its blocking probe for the NBX sparse exchange.  All traffic is
metered (:mod:`repro.mpi.stats`) so the performance model can extrapolate
to the paper's process counts; the counters are backend-independent
because metering happens here, above the transport.

Payloads are passed by reference on the thread/serial backends for speed;
SPMD code here follows the MPI discipline of never mutating a buffer it has
sent (the test-suite exercises this contract).  NumPy arrays are the
preferred payload, matching the mpi4py guidance of buffer-based messaging
for performance — on the process backend every payload, array or not,
travels pickled through the destination rank's queue.

``Comm`` is transport-agnostic: it talks to a duck-typed *world* object
whose contract is documented in :mod:`repro.runtime.base`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from .. import obs
from .stats import CommStats, payload_bytes

ANY_SOURCE = -1
ANY_TAG = -1


class SpmdError(RuntimeError):
    """Raised when any rank of an SPMD run fails or the run deadlocks."""


class Comm:
    """Rank-local view of a simulated communicator.

    Backend-independent: all transport goes through the world interface
    (:mod:`repro.runtime.base`), all metering happens here.
    """

    def __init__(self, world, rank: int) -> None:
        self._world = world
        self.rank = rank
        self.size = world.size

    # ------------------------------------------------------------------ p2p

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if not 0 <= dest < self.size:
            raise ValueError(f"bad dest {dest}")
        nbytes = payload_bytes(obj)
        self._world.stats.record_p2p(nbytes)
        obs.incr("comm.send_bytes", nbytes)
        with obs.span("comm.send"):
            self._world.post(dest, self.rank, tag, obj)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        with obs.span("comm.recv"):
            _, _, payload = self._world.wait_recv(self.rank, source, tag)
        return payload

    def probe_until(self, bar: "_IBarrier", source: int = ANY_SOURCE,
                    tag: int = ANY_TAG):
        """Blocking probe that gives up once this rank's non-blocking
        barrier ``bar`` completes: (source, tag) of a pending match, else
        None.  Barrier arrivals travel behind the messages their senders
        sent before them, so after None none of those is still to come.
        The world forgets a barrier once it has completed here, so a call
        after the None would wait forever: the drain stops at None."""
        return self._world.probe_until(self.rank, source, tag, bar._key)

    # ----------------------------------------------------------- collectives

    def barrier(self) -> None:
        self._verify("barrier", None, symmetric=True)
        self._world.stats.record_barrier()
        with obs.span("comm.barrier"):
            self._world.exchange(self.rank, None, lambda xs: None)

    def ibarrier(self, key: int = 0) -> "_IBarrier":
        """Non-blocking barrier used by the NBX sparse exchange."""
        self._world.ibarrier_arrive(self.rank, key)
        return _IBarrier(key)

    def _verify(self, op: str, value: Any, symmetric: bool) -> None:
        """Cross-rank collective-matching check (``REPRO_SPMD_CHECK=1``).

        Delegates to :mod:`repro.analysis.runtime_check`; the fast path when
        checks are disabled is a single function call.  The fingerprint
        rendezvous bypasses ``CommStats``, so counters are check-invariant.
        """
        from repro.analysis.runtime_check import verify_collective

        verify_collective(self, op, value, symmetric)

    def _collective(
        self,
        value: Any,
        combine: Callable[[list], Any],
        op: str = "collective",
        symmetric: bool = False,
    ) -> Any:
        self._verify(op, value, symmetric)
        nbytes = payload_bytes(value)
        self._world.stats.record_collective(nbytes)
        obs.incr("comm.collective_bytes", nbytes)
        # Wait time at the rendezvous: rank imbalance shows up here.
        with obs.span("comm.collective"):
            return self._world.exchange(self.rank, value, combine)

    def allgather(self, obj: Any) -> list:
        return list(self._collective(obj, list, op="allgather"))

    def allreduce(self, obj: Any, op: Callable = None) -> Any:
        op = op if op is not None else _sum_op

        def combine(xs):
            acc = xs[0]
            for x in xs[1:]:
                acc = op(acc, x)
            return acc

        return self._collective(obj, combine, op="allreduce", symmetric=True)

    def exscan(self, obj: Any, op: Callable = None) -> Any:
        """Exclusive prefix reduction (None/zero-like on rank 0)."""
        op = op if op is not None else _sum_op
        all_ = self._collective(obj, list, op="exscan", symmetric=True)
        if self.rank == 0:
            return None
        acc = all_[0]
        for x in all_[1 : self.rank]:
            acc = op(acc, x)
        return acc

    def alltoall(self, objs: Sequence) -> list:
        if len(objs) != self.size:
            raise ValueError("alltoall needs one item per rank")
        matrix = self._collective(list(objs), list, op="alltoall")
        return [matrix[src][self.rank] for src in range(self.size)]

    def alltoallv(self, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Array-per-destination variant; returns array-per-source."""
        return self.alltoall(list(arrays))

    # ------------------------------------------------------------- split etc.

    def split(self, color: int, key: int = 0) -> Optional["Comm"]:
        """MPI_Comm_split.  Returns None for color < 0 (undefined)."""
        self._world.stats.record_split()
        self._n_splits = getattr(self, "_n_splits", 0) + 1
        triples = self.allgather((color, key, self.rank))
        if color < 0:
            return None
        members = sorted((k, r) for (c, k, r) in triples if c == color)
        ranks = [r for _, r in members]
        my_new_rank = ranks.index(self.rank)
        # All ranks of a subgroup must share one world.  Splits are
        # collective, so every rank's per-comm call counter agrees; keying
        # the subworld by (member tuple, call number) makes successive splits
        # with identical groups produce fresh worlds.
        sub = self._world.subworld((tuple(ranks), self._n_splits), ranks)
        return Comm(sub, my_new_rank)

    def split_cached(self, color: int, key: int = 0, cache_tag: Any = None):
        """Memoized ``split`` — the paper caches communicator sequences in an
        MPI attribute so repeated hierarchical sorts don't re-split."""
        # Keyed per rank: the cached object is this rank's view of the
        # sub-communicator, not a shared handle.
        ck = ("split_cached", cache_tag, color, key, self.rank)
        cached = self._world.get_attr(ck, _ATTR_MISS)
        if cached is not _ATTR_MISS:
            # Everyone who cached it returns it without communication
            # (including a cached None from an undefined color).
            return cached
        # Not a rank-divergent collective: split_cached is itself collective,
        # and the cache is only populated by a prior collective call with the
        # same (cache_tag, color, key), so hit/miss agrees on every rank and
        # all ranks reach this split together.
        sub = self.split(color, key)
        self._world.set_attr(ck, sub)
        return sub

    # -------------------------------------------------------------- attrs

    def set_attr(self, key: Any, value: Any) -> None:
        self._world.set_attr(key, value)

    def get_attr(self, key: Any, default: Any = None) -> Any:
        return self._world.get_attr(key, default)

    @property
    def stats(self) -> CommStats:
        return self._world.stats


_ATTR_MISS = object()


class _IBarrier:
    """A non-blocking barrier this rank has entered (:meth:`Comm.ibarrier`),
    waited on by :meth:`Comm.probe_until`."""

    def __init__(self, key) -> None:
        self._key = key


def _sum_op(a, b):
    return a + b


def run_spmd(
    nprocs: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: Optional[float] = None,
    stats: Optional[CommStats] = None,
    backend: Optional[str] = None,
) -> list:
    """Run ``fn(comm, *args)`` on ``nprocs`` simulated ranks; return per-rank
    results.  Any rank exception, a deadlock, or a run still going past
    ``timeout`` raises :class:`SpmdError` with the failing rank identified.

    ``backend`` names how ranks execute: ``"thread"`` (default, zero-copy,
    GIL-bound), ``"process"`` (forked OS processes, payloads pickled through
    queues, real core parallelism), or ``"serial"`` (deterministic
    round-robin, for debugging); ``None`` means ``"thread"``.  ``timeout``
    defaults to 120 seconds.  All backends meter traffic into ``stats``
    identically.

    When the calling thread has :mod:`repro.obs` tracing enabled, every rank
    runs under its own tracer and the per-rank snapshots ride home on the
    result transport; read them afterwards via ``obs.last_spmd_report()``.
    """
    # Imported lazily: repro.runtime's backends import Comm from this module.
    from repro.runtime import DEFAULT_TIMEOUT, resolve_backend

    b = resolve_backend(backend)
    timeout_s = DEFAULT_TIMEOUT if timeout is None else float(timeout)
    stats = stats if stats is not None else CommStats()
    if not obs.rank_armed():
        return b.run(nprocs, fn, args, timeout_s, stats)
    results = b.run(nprocs, _traced_rank, (fn,) + args, timeout_s, stats)
    obs._set_last_spmd([snap for _, snap in results])
    return [res for res, _ in results]


def _traced_rank(comm: "Comm", fn: Callable[..., Any], *args: Any):
    """Rank wrapper installed by a traced ``run_spmd``: fresh per-rank
    tracer, snapshot shipped back alongside the user result."""
    obs.begin_rank()
    try:
        result = fn(comm, *args)
    finally:
        snap = obs.end_rank()
    return result, snap
