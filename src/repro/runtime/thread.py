"""Thread-per-rank backend: the original zero-copy SPMD simulator.

One OS thread per rank; records pass by *reference* (SPMD code follows the
MPI discipline of never mutating a sent buffer) and a waiting rank sleeps on
its own condition of one run-wide lock.  Cheap to launch and ideal for
communication-structure measurement, but the GIL serializes Python-level
work across ranks — use the process backend when ranks do heavy NumPy work.

On a deadlock timeout the error carries the "per-rank state" table (what
each rank is blocked on) followed by the per-rank stack traces, so the
blocked operation is visible without a debugger.

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

from repro.mpi.comm import Comm, SpmdError

from .base import Backend, DeadlockError, World, format_rank_states


class _Threads:
    """In-process transport: a record is filed into the destination's
    world under the run-wide lock, and wakes that rank's condition."""

    def __init__(self, nprocs: int, stats, timeout: float) -> None:
        self.stats = stats
        self.timeout = timeout
        self.lock = threading.Lock()
        self._wakeup = [threading.Condition(self.lock) for _ in range(nprocs)]
        self.threads: dict[int, threading.Thread] = {}  # top-level rank -> its thread
        self._waiting: dict[int, str] = {}  # top-level rank -> what it waits on

    def register(self, world: World) -> None:
        pass

    def send(self, world: World, dest: int, record: tuple) -> None:
        with self.lock:
            world.deliver(dest, *record)
            self._wakeup[world.members[dest]].notify()

    def poll(self, world: World, rank: int, ready):
        with self.lock:
            return ready()

    def wait(self, world: World, rank: int, ready, desc: str):
        me = world.members[rank]
        deadline = time.monotonic() + self.timeout
        with self.lock:
            self._waiting[me] = desc
            try:
                while (out := ready()) is None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        # Built here, lock held, while every peer still sits
                        # in its blocked frame.
                        raise DeadlockError(
                            f"{desc} timed out — deadlock?\n{self.hang_report()}"
                        )
                    self._wakeup[me].wait(remaining)
                return out
            finally:
                del self._waiting[me]

    def hang_report(self) -> str:
        """What every rank waits on, then every live rank's stack."""
        frames = sys._current_frames()
        states, stacks = {}, []
        for r, t in sorted(self.threads.items()):
            if not t.is_alive():
                states[r] = "finished"
                continue
            states[r] = self._waiting.get(r)
            frame = frames.get(t.ident)
            stack = "".join(traceback.format_stack(frame)) if frame else "<no frame>\n"
            stacks.append(f"rank {r} stack:\n{stack.rstrip()}")
        return "\n".join([format_rank_states(states), *stacks])


class ThreadBackend(Backend):
    """Default backend: one daemon thread per rank, zero-copy records."""

    name = "thread"

    def _transport(self, nprocs: int, stats, timeout: float) -> _Threads:
        return _Threads(nprocs, stats, timeout)

    def _rank(self, transport, world: World, r: int, fn, args):
        return fn(Comm(world, r), *args)

    def run(self, nprocs, fn, args, timeout, stats) -> list:
        transport = self._transport(nprocs, stats, timeout)
        world = World(transport, range(nprocs))
        results: list = [None] * nprocs
        errors: list = [None] * nprocs

        def runner(r: int) -> None:
            try:
                results[r] = self._rank(transport, world, r, fn, args)
            except BaseException as exc:  # noqa: BLE001 - reported to the caller
                errors[r] = exc

        threads = {
            r: threading.Thread(target=runner, args=(r,), daemon=True)
            for r in range(nprocs)
        }
        transport.threads.update(threads)
        for t in threads.values():
            t.start()
        # Past `timeout` a rank blocked in a wait reports it itself, while its
        # peers still sit in theirs; this backstop, a little later, is for
        # ranks that never wait (a rank stuck computing).
        deadline = time.monotonic() + timeout + 0.25
        while True:
            alive = [t for t in threads.values() if t.is_alive()]
            # A failed rank usually leaves its peers blocked in a collective;
            # report the root cause, not the ensuing hang (threads are daemons).
            for r, exc in enumerate(errors):
                if isinstance(exc, DeadlockError):
                    raise SpmdError(str(exc)) from exc
                if exc is not None:
                    raise SpmdError(f"rank {r} failed: {exc!r}") from exc
            if not alive:
                return results
            if time.monotonic() > deadline:
                raise SpmdError(
                    f"SPMD run timed out after {timeout}s (deadlock?)\n"
                    + transport.hang_report()
                )
            alive[0].join(min(0.05, max(deadline - time.monotonic(), 0.001)))
