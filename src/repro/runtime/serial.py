"""Serial backend: deterministic single-threaded round-robin scheduling.

Ranks are cooperative tasks; exactly one executes at any moment and control
is handed off round-robin at the communication wait points (blocked receive,
collective rendezvous, probe and non-blocking-barrier poll).  Because the
schedule depends only on the program's communication structure, two runs of
the same program interleave identically — ideal for debugging and for
reproducing heisenbugs found under the thread backend.

Deadlocks are detected *structurally*: the moment every unfinished rank is
blocked with no possible wake-up, the run aborts with a report naming what
each rank was waiting for (no timeout needed); an NBX drain whose barrier
can never complete is such a wait.  A poll-loop livelock (e.g. an ``iprobe``
loop for a message that never comes) is caught by a bounded count of
consecutive unproductive handoffs.

Implementation note: this is the thread backend's transport and launcher
under a baton — ranks are OS threads and records pass by reference, but
only the baton holder runs, so the interleaving is fully deterministic.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.mpi.comm import Comm

from .base import DeadlockError, World, format_rank_states
from .thread import ThreadBackend, _Threads


class _Aborted(BaseException):
    """Internal: unwind a rank after another rank failed or timed out."""


class _Scheduler:
    """Round-robin baton over the top-level ranks."""

    def __init__(self, n: int) -> None:
        self.cv = threading.Condition()
        self.n = n
        self.current = 0
        self.finished = [False] * n
        # blocked[r] is a wait description while r cannot progress, else None.
        self.blocked: list[Optional[str]] = [None] * n
        self.blocked_at = [0] * n
        self.progress = 1  # bumped on every event that could unblock a rank
        self.abort: Optional[str] = None
        self._idle_spins = 0
        self._last_spin_progress = -1
        self.spin_limit = 20_000 * n

    # All public methods acquire self.cv; user code never holds it.

    def wait_initial(self, rank: int) -> None:
        with self.cv:
            self._wait_for_turn(rank)

    def bump(self) -> None:
        with self.cv:
            self.progress += 1

    def yield_turn(self, rank: int, desc: Optional[str] = None) -> None:
        """Hand the baton to the next runnable rank.

        ``desc`` marks a hard block (only re-runnable after progress);
        ``None`` is a polling yield (always re-runnable).
        """
        with self.cv:
            if desc is not None:
                self.blocked[rank] = desc
                self.blocked_at[rank] = self.progress
            else:
                if self.progress == self._last_spin_progress:
                    self._idle_spins += 1
                    if self._idle_spins > self.spin_limit:
                        raise self._deadlock(
                            "livelock: ranks polling with no progress"
                        )
                else:
                    self._idle_spins = 0
                    self._last_spin_progress = self.progress
            self._handoff(rank)
            self._wait_for_turn(rank)
            self.blocked[rank] = None

    def finish(self, rank: int) -> None:
        with self.cv:
            self.finished[rank] = True
            self.blocked[rank] = None
            if self.abort is None and not all(self.finished):
                self._handoff(rank)
            self.cv.notify_all()

    def fail(self, reason: str) -> None:
        with self.cv:
            if self.abort is None:
                self.abort = reason
            self.cv.notify_all()

    # ------------------------------------------------------------ internals

    def _runnable(self, r: int) -> bool:
        if self.finished[r]:
            return False
        return self.blocked[r] is None or self.progress > self.blocked_at[r]

    def _handoff(self, rank: int) -> None:
        for step in range(1, self.n + 1):
            c = (rank + step) % self.n
            if self._runnable(c):
                self.current = c
                self.cv.notify_all()
                return
        if all(self.finished):
            return
        raise self._deadlock("all ranks blocked")

    def rank_table(self) -> str:
        """The per-rank state table every backend emits (``self.cv`` held)."""
        return format_rank_states(
            {
                r: "finished" if self.finished[r] else self.blocked[r]
                for r in range(self.n)
            }
        )

    def _deadlock(self, why: str) -> DeadlockError:
        self.abort = f"SPMD deadlock ({why}); {self.rank_table()}"
        self.cv.notify_all()
        return DeadlockError(self.abort)

    def _wait_for_turn(self, rank: int) -> None:
        while self.current != rank:
            if self.abort is not None:
                raise _Aborted()
            self.cv.wait(0.2)
        if self.abort is not None:
            raise _Aborted()




class _Baton(_Threads):
    """The thread transport, but a rank waits by handing the baton on."""

    def __init__(self, nprocs: int, stats, timeout: float) -> None:
        super().__init__(nprocs, stats, timeout)
        self.sched = _Scheduler(nprocs)

    def send(self, world: World, dest: int, record: tuple) -> None:
        super().send(world, dest, record)
        self.sched.bump()

    def wait(self, world: World, rank: int, ready, desc: str):
        while (out := ready()) is None:
            self.sched.yield_turn(world.members[rank], desc)
        return out

    def poll(self, world: World, rank: int, ready):
        if (out := ready()) is None:
            # Give peers a deterministic chance to send before reporting no.
            self.sched.yield_turn(world.members[rank])
            out = ready()
        return out

    def hang_report(self) -> str:
        """The structural table; also stops every rank (a wall timeout)."""
        with self.sched.cv:
            table = self.sched.rank_table()
        self.sched.fail("wall timeout")
        return table


class SerialBackend(ThreadBackend):
    """Deterministic debugging backend (one rank runs at a time)."""

    name = "serial"

    def _transport(self, nprocs: int, stats, timeout: float) -> _Baton:
        return _Baton(nprocs, stats, timeout)

    def _rank(self, transport: _Baton, world: World, r: int, fn, args):
        sched = transport.sched
        try:
            sched.wait_initial(r)
            return fn(Comm(world, r), *args)
        except _Aborted:
            return None  # another rank's failure is the one reported
        except BaseException as exc:
            sched.fail(f"rank {r} failed: {exc!r}")
            raise
        finally:
            # Raises DeadlockError if this rank finished and its peers never can.
            sched.finish(r)
