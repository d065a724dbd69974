"""Thread-per-rank backend: the original zero-copy SPMD simulator.

One OS thread per rank; mailboxes hold payload *references* (SPMD code
follows the MPI discipline of never mutating a sent buffer), collectives
rendezvous on a double barrier.  Cheap to launch and ideal for
communication-structure measurement, but the GIL serializes Python-level
work across ranks — use the process backend when ranks do heavy NumPy work.

On a deadlock timeout the error carries the serial backend's structural
"per-rank state" table (what each rank is blocked on, maintained by a
shared wait board) followed by the per-rank stack traces, so the blocked
operation is visible without a debugger.

A rank that breaks that discipline - mutating a payload it sent or
received, or a collective result - changes what its peers see here but not
on the copying process backend.  No checker watches for it; the
cross-backend equivalence suite does, by comparing the two backends'
results.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from typing import Any, Callable, Optional

from .base import Backend, format_rank_states

ANY_SOURCE = -1
ANY_TAG = -1


class _Mailbox:
    """Unordered-match message store for one destination rank.

    ``on_timeout`` (if set) is called when a blocking get expires and its
    return value is appended to the error — the deadlock report must be
    built *here*, while every peer still sits in its blocked frame; by the
    time the error reaches the backend's main loop the peers' own
    deadlines (the same instant) have unwound their stacks.
    """

    def __init__(self, on_timeout: Optional[Callable[[], str]] = None) -> None:
        self._cv = threading.Condition()
        self._messages: list[tuple[int, int, Any]] = []
        self._on_timeout = on_timeout

    def put(self, src: int, tag: int, payload: Any) -> None:
        with self._cv:
            self._messages.append((src, tag, payload))
            self._cv.notify_all()

    def _match(self, source: int, tag: int) -> Optional[int]:
        for i, (s, t, _) in enumerate(self._messages):
            if (source == ANY_SOURCE or s == source) and (tag == ANY_TAG or t == tag):
                return i
        return None

    def get(self, source: int, tag: int, timeout: float):
        from repro.mpi.comm import SpmdError

        deadline = time.monotonic() + timeout
        with self._cv:
            while True:
                i = self._match(source, tag)
                if i is not None:
                    return self._messages.pop(i)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    msg = f"recv(source={source}, tag={tag}) timed out — deadlock?"
                    if self._on_timeout is not None:
                        msg += "\n" + self._on_timeout()
                    raise SpmdError(msg)
                self._cv.wait(remaining)

    def probe(self, source: int, tag: int) -> Optional[tuple[int, int]]:
        with self._cv:
            i = self._match(source, tag)
            if i is None:
                return None
            s, t, _ = self._messages[i]
            return (s, t)


class _CollectiveContext:
    """One reusable rendezvous slot per communicator.

    Ranks deposit contributions, synchronize on a barrier, read the combined
    result, and synchronize again before the slot is reused.  The double
    barrier makes back-to-back collectives safe.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.slots: list[Any] = [None] * size
        self.result: Any = None
        self.barrier = threading.Barrier(size)

    def exchange(self, rank: int, value: Any, combine: Callable[[list], Any]) -> Any:
        self.slots[rank] = value
        idx = self.barrier.wait()
        if idx == 0:
            self.result = combine(self.slots)
        self.barrier.wait()
        out = self.result
        idx = self.barrier.wait()
        if idx == 0:
            self.slots = [None] * self.size
            self.result = None
        self.barrier.wait()
        return out


class ThreadWorld:
    """Shared state for one communicator (group of rank threads)."""

    def __init__(
        self,
        size: int,
        stats,
        timeout: float,
        rank_threads: dict | None = None,
        wait_board: dict | None = None,
    ) -> None:
        self.size = size
        self.stats = stats
        self.timeout = timeout
        # Top-level rank -> thread, filled in by the backend after spawn and
        # shared (by reference) with every subworld for deadlock reports.
        self.rank_threads: dict[int, threading.Thread] = (
            {} if rank_threads is None else rank_threads
        )
        #: thread ident -> "waiting on" description; shared with subworlds
        #: so the deadlock table covers blocked sub-communicator waits too.
        self.wait_board: dict[int, str] = {} if wait_board is None else wait_board
        self.mailboxes = [_Mailbox(self._deadlock_report) for _ in range(size)]
        self.collective = _CollectiveContext(size)
        self.split_lock = threading.Lock()
        self.split_cache: dict = {}
        self.attr_lock = threading.Lock()
        self.attrs: dict = {}
        self.ibarrier_lock = threading.Lock()
        self.ibarrier_counts: dict = {}

    def _set_wait(self, desc: str | None) -> None:
        ident = threading.get_ident()
        if desc is None:
            self.wait_board.pop(ident, None)
        else:
            self.wait_board[ident] = desc

    # Transport interface (see repro.runtime.base) -------------------------

    def post(self, dest: int, src: int, tag: int, payload: Any) -> None:
        self.mailboxes[dest].put(src, tag, payload)

    def wait_recv(self, rank: int, source: int, tag: int):
        self._set_wait(
            f"recv(source={source}, tag={tag}) on comm of size {self.size}"
        )
        try:
            return self.mailboxes[rank].get(source, tag, self.timeout)
        finally:
            self._set_wait(None)

    def probe(self, rank: int, source: int, tag: int):
        return self.mailboxes[rank].probe(source, tag)

    def exchange(self, rank: int, value: Any, combine: Callable[[list], Any]) -> Any:
        self._set_wait(f"collective on comm of size {self.size}")
        try:
            return self.collective.exchange(rank, value, combine)
        finally:
            self._set_wait(None)

    def ibarrier_arrive(self, rank: int, key) -> None:
        with self.ibarrier_lock:
            self.ibarrier_counts[key] = self.ibarrier_counts.get(key, 0) + 1

    def ibarrier_done(self, rank: int, key) -> bool:
        with self.ibarrier_lock:
            return self.ibarrier_counts.get(key, 0) >= self.size

    def subworld(self, key, ranks: list[int]) -> "ThreadWorld":
        # All ranks of a subgroup must share one world.  Splits are
        # collective, so every member presents the same key; the first
        # arrival creates the world, the rest find it in the cache.
        with self.split_lock:
            if key not in self.split_cache:
                self.split_cache[key] = type(self)(
                    len(ranks),
                    self.stats,
                    self.timeout,
                    self.rank_threads,
                    self.wait_board,
                )
            return self.split_cache[key]

    def set_attr(self, key, value) -> None:
        with self.attr_lock:
            self.attrs[key] = value

    def get_attr(self, key, default=None):
        with self.attr_lock:
            return self.attrs.get(key, default)

    def _deadlock_report(self) -> str:
        if not self.rank_threads:
            return "(rank threads unknown)"
        return _deadlock_report(self.rank_threads, self.wait_board)


def _wait_table(
    rank_threads: dict[int, threading.Thread], wait_board: dict[int, str]
) -> str:
    """Serial-style structural table: what every top-level rank waits on."""
    states = {}
    for r, t in rank_threads.items():
        if not t.is_alive():
            states[r] = "finished"
        else:
            states[r] = wait_board.get(t.ident) or "running"
    return format_rank_states(states)


def _format_rank_stacks(rank_threads: dict[int, threading.Thread]) -> str:
    """Per-rank stack traces for the deadlock report."""
    frames = sys._current_frames()
    chunks = []
    for r in sorted(rank_threads):
        t = rank_threads[r]
        if not t.is_alive():
            chunks.append(f"rank {r}: finished")
            continue
        frame = frames.get(t.ident)
        if frame is None:
            chunks.append(f"rank {r}: <no frame>")
            continue
        stack = "".join(traceback.format_stack(frame))
        chunks.append(f"rank {r} stack:\n{stack.rstrip()}")
    return "\n".join(chunks)


def _deadlock_report(
    rank_threads: dict[int, threading.Thread], wait_board: dict[int, str]
) -> str:
    """Structural waiting-on table first (deadlock reporter parity with the
    serial backend), raw stacks after for the full picture."""
    return _wait_table(rank_threads, wait_board) + "\n" + _format_rank_stacks(
        rank_threads
    )


class ThreadBackend(Backend):
    """Default backend: one daemon thread per rank, zero-copy mailboxes."""

    name = "thread"

    def run(self, nprocs, fn, args, timeout, stats) -> list:
        from repro.mpi.comm import Comm, SpmdError

        world = ThreadWorld(nprocs, stats, timeout)
        results: list = [None] * nprocs
        errors: list = [None] * nprocs

        def runner(r: int) -> None:
            try:
                results[r] = fn(Comm(world, r), *args)
            except BaseException as exc:  # noqa: BLE001 - reported to the caller
                errors[r] = exc

        threads = {
            r: threading.Thread(target=runner, args=(r,), daemon=True)
            for r in range(nprocs)
        }
        world.rank_threads.update(threads)
        for t in threads.values():
            t.start()
        deadline = time.monotonic() + timeout
        while True:
            alive = [t for t in threads.values() if t.is_alive()]
            # A failed rank usually leaves its peers blocked in a collective;
            # report the root cause, not the ensuing hang (threads are daemons).
            for r, exc in enumerate(errors):
                if exc is not None:
                    raise SpmdError(f"rank {r} failed: {exc!r}") from exc
            if not alive:
                break
            if time.monotonic() > deadline:
                raise SpmdError(
                    f"SPMD run timed out after {timeout}s (deadlock?)\n"
                    + _deadlock_report(threads, world.wait_board)
                )
            alive[0].join(min(0.05, max(deadline - time.monotonic(), 0.001)))
        return results
