"""Thread-per-rank backend: the original zero-copy SPMD simulator.

One OS thread per rank; records pass by *reference* (SPMD code follows the
MPI discipline of never mutating a sent buffer) and a waiting rank sleeps on
its own condition of one run-wide lock.  Cheap to launch and ideal for
communication-structure measurement, but the GIL serializes Python-level
work across ranks — use the process backend when ranks do heavy NumPy work.

Deadlocks are detected *structurally*, under the run-wide lock: a rank whose
wait predicate reads false is blocked until a record is filed for it, and
the wait (or rank exit) that leaves every live rank blocked raises at once,
with no timeout.  The report is the "per-rank state" table (what each rank
is blocked on, or ``finished``) followed by the per-rank stack traces, built
while every peer still sits in its blocked frame; every blocked rank then
raises it.  The run's ``timeout`` is only the launcher's backstop for a rank
that never waits (stuck computing).

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
from typing import Optional

from repro.mpi.comm import Comm, SpmdError

from .base import Backend, DeadlockError, World, format_rank_states


class _Threads:
    """In-process transport: a record is filed into the destination's
    world under the run-wide lock, and wakes that rank's condition.

    Under the same lock it keeps the one deadlock table: ``blocked`` maps a
    top-level rank to its wait text while its predicate reads false (until
    a record reaches it), and ``finished`` holds the ranks that have ended.
    """

    def __init__(self, nprocs: int, stats) -> None:
        self.stats = stats
        self.lock = threading.Lock()
        self._wakeup = [threading.Condition(self.lock) for _ in range(nprocs)]
        self.threads: dict[int, threading.Thread] = {}  # top-level rank -> its thread
        self.blocked: dict[int, str] = {}
        self.finished: set[int] = set()
        self.report: Optional[str] = None  # once filed, every wait raises it

    def register(self, world: World) -> None:
        pass

    def send(self, world: World, dest: int, record: tuple) -> None:
        me = world.members[dest]
        with self.lock:
            world.deliver(dest, *record)
            self.blocked.pop(me, None)
            self._wakeup[me].notify()

    def wait(self, world: World, rank: int, ready, desc: str):
        me = world.members[rank]
        with self.lock:
            while (out := ready()) is None:
                self.blocked[me] = desc
                self._check()
                self._handoff(me)
                self._await(me)
            return out

    def enter(self, me: int) -> None:
        """Rank ``me`` starts; returns once it may run."""
        with self.lock:
            self._await(me)

    def exit(self, me: int) -> None:
        """Rank ``me`` has ended; a peer it leaves blocked may close a cycle."""
        with self.lock:
            self.finished.add(me)
            self._check()
            self._handoff(me)

    def abort(self, why: str) -> str:
        """File ``why`` and the hang report, unless a report is filed
        already, and wake every waiter to raise it; return the report."""
        with self.lock:
            self._file(why)
            return self.report

    # Lock held from here on.

    def _runs(self, me: int) -> bool:
        """May ``me`` go on?  Here: once a record has reached it."""
        return me not in self.blocked

    def _handoff(self, me: int) -> None:
        """``me`` stops running; the serial baton passes on here."""

    def _check(self) -> None:
        live = len(self._wakeup) - len(self.finished)
        if live and len(self.blocked) == live:
            self._file("SPMD deadlock (all ranks blocked); ")

    def _file(self, why: str) -> None:
        if self.report is None:
            self.report = why + self.hang_report()
            for cv in self._wakeup:
                cv.notify_all()

    def _await(self, me: int) -> None:
        while self.report is None and not self._runs(me):
            self._wakeup[me].wait()
        if self.report is not None:
            raise DeadlockError(self.report)

    def hang_report(self) -> str:
        """What every rank waits on, then every live rank's stack."""
        frames = sys._current_frames()
        states, stacks = {}, []
        for r, t in sorted(self.threads.items()):
            if r in self.finished:
                states[r] = "finished"
                continue
            states[r] = self.blocked.get(r)
            frame = frames.get(t.ident)
            stack = "".join(traceback.format_stack(frame)) if frame else "<no frame>\n"
            stacks.append(f"rank {r} stack:\n{stack.rstrip()}")
        return "\n".join([format_rank_states(states), *stacks])


class ThreadBackend(Backend):
    """Default backend: one daemon thread per rank, zero-copy records."""

    name = "thread"

    def _transport(self, nprocs: int, stats) -> _Threads:
        return _Threads(nprocs, stats)

    def run(self, nprocs, fn, args, timeout, stats) -> list:
        transport = self._transport(nprocs, stats)
        world = World(transport, range(nprocs))
        results: list = [None] * nprocs
        errors: list = [None] * nprocs

        def runner(r: int) -> None:
            try:
                transport.enter(r)
                results[r] = fn(Comm(world, r), *args)
            except BaseException as exc:  # noqa: BLE001 - reported to the caller
                errors[r] = exc
            finally:
                transport.exit(r)

        threads = {
            r: threading.Thread(target=runner, args=(r,), daemon=True)
            for r in range(nprocs)
        }
        transport.threads.update(threads)
        for t in threads.values():
            t.start()
        deadline = time.monotonic() + timeout
        while True:
            alive = [t for t in threads.values() if t.is_alive()]
            # A failed rank leaves its peers blocked, and its exit files the
            # deadlock they raise; its error is stored before that exit, so
            # one snapshot holds it whenever it holds theirs.  Report the
            # root cause, not the ensuing hang (threads are daemons).
            errs = list(errors)
            failed = sorted(
                (isinstance(exc, DeadlockError), r)
                for r, exc in enumerate(errs) if exc is not None
            )
            if failed:
                hung, r = failed[0]
                exc = errs[r]
                raise SpmdError(
                    str(exc) if hung else f"rank {r} failed: {exc!r}"
                ) from exc
            if not alive:
                return results
            if time.monotonic() > deadline:
                raise SpmdError(transport.abort(
                    f"SPMD run timed out after {timeout}s (deadlock?)\n"
                ))
            alive[0].join(min(0.05, max(deadline - time.monotonic(), 0.001)))
