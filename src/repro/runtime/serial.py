"""Serial backend: deterministic single-threaded round-robin scheduling.

Ranks are cooperative tasks; exactly one executes at any moment and control
is handed off round-robin at the communication wait points (blocked receive,
collective rendezvous, non-blocking-barrier poll).  Because the schedule
depends only on the program's communication structure, two runs of the same
program interleave identically — ideal for debugging and for reproducing
heisenbugs found under the thread backend.

Deadlocks are detected *structurally*: the moment every unfinished rank is
blocked with no possible wake-up, the run aborts with a report naming what
each rank was waiting for (no timeout needed).  A poll-loop livelock (e.g. an
NBX drain loop whose barrier can never complete) is caught by a bounded count
of consecutive unproductive handoffs.

Implementation note: ranks are carried by OS threads, but a baton guarantees
only one ever runs; the interleaving is fully deterministic.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from .base import Backend, format_rank_states
from .thread import ANY_SOURCE, ANY_TAG


class _Aborted(BaseException):
    """Internal: unwind a rank after another rank failed or timed out."""


class DeadlockError(Exception):
    """Internal marker; converted to SpmdError by the backend."""


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


def _match(messages: list, source: int, tag: int) -> Optional[int]:
    for i, (s, t, _) in enumerate(messages):
        if (source == ANY_SOURCE or s == source) and (tag == ANY_TAG or t == tag):
            return i
    return None


class SerialWorld:
    """Single-runner world: plain lists, no locks, scheduler-mediated waits.

    ``owners`` maps this world's local ranks to top-level scheduler ranks so
    sub-communicators created by ``split`` share the one global baton.
    """

    def __init__(self, size, stats, timeout, sched: _Scheduler, owners) -> None:
        self.size = size
        self.stats = stats
        self.timeout = timeout
        self.sched = sched
        self.owners = list(owners)
        self.boxes: list[list] = [[] for _ in range(size)]
        self.split_cache: dict = {}
        self.attrs: dict = {}
        self._contribs: dict = {}
        self._results: dict = {}
        self._result_reads: dict = {}
        self._ibar: dict = {}
        self._coll_seq = [0] * size

    # Transport interface (see repro.runtime.base) -------------------------

    def post(self, dest: int, src: int, tag: int, payload: Any) -> None:
        self.boxes[dest].append((src, tag, payload))
        self.sched.bump()

    def wait_recv(self, rank: int, source: int, tag: int):
        while True:
            i = _match(self.boxes[rank], source, tag)
            if i is not None:
                return self.boxes[rank].pop(i)
            self.sched.yield_turn(
                self.owners[rank],
                f"recv(source={source}, tag={tag}) on comm of size {self.size}",
            )

    def probe(self, rank: int, source: int, tag: int):
        i = _match(self.boxes[rank], source, tag)
        if i is None:
            # Give peers a deterministic chance to send before reporting no.
            self.sched.yield_turn(self.owners[rank])
            i = _match(self.boxes[rank], source, tag)
        if i is None:
            return None
        s, t, _ = self.boxes[rank][i]
        return (s, t)

    def exchange(self, rank: int, value: Any, combine: Callable[[list], Any]) -> Any:
        # Root-gathers-then-broadcasts, all through scheduler wait points;
        # payloads pass by reference (zero-copy, like the thread backend).
        seq = self._coll_seq[rank]
        self._coll_seq[rank] += 1
        contribs = self._contribs.setdefault(seq, {})
        contribs[rank] = value
        self.sched.bump()
        if rank == 0:
            while len(contribs) < self.size:
                self.sched.yield_turn(
                    self.owners[0],
                    f"collective #{seq} (root; {len(contribs)}/{self.size} arrived)",
                )
            result = combine([contribs[r] for r in range(self.size)])
            del self._contribs[seq]
            self._results[seq] = result
            self._result_reads[seq] = self.size - 1
            self.sched.bump()
            return result
        while seq not in self._results:
            self.sched.yield_turn(
                self.owners[rank], f"collective #{seq} (awaiting result)"
            )
        result = self._results[seq]
        self._result_reads[seq] -= 1
        if self._result_reads[seq] == 0:
            del self._results[seq]
            del self._result_reads[seq]
        return result

    def ibarrier_arrive(self, rank: int, key) -> None:
        self._ibar[key] = self._ibar.get(key, 0) + 1
        self.sched.bump()

    def ibarrier_done(self, rank: int, key) -> bool:
        if self._ibar.get(key, 0) >= self.size:
            return True
        self.sched.yield_turn(self.owners[rank])
        return self._ibar.get(key, 0) >= self.size

    def subworld(self, key, ranks: list[int]) -> "SerialWorld":
        if key not in self.split_cache:
            self.split_cache[key] = SerialWorld(
                len(ranks),
                self.stats,
                self.timeout,
                self.sched,
                [self.owners[r] for r in ranks],
            )
        return self.split_cache[key]

    def set_attr(self, key, value) -> None:
        self.attrs[key] = value

    def get_attr(self, key, default=None):
        return self.attrs.get(key, default)


class SerialBackend(Backend):
    """Deterministic debugging backend (one rank runs at a time)."""

    name = "serial"

    def run(self, nprocs, fn, args, timeout, stats) -> list:
        from repro.mpi.comm import Comm, SpmdError

        import time

        sched = _Scheduler(nprocs)
        world = SerialWorld(nprocs, stats, timeout, sched, range(nprocs))
        results: list = [None] * nprocs
        errors: list = [None] * nprocs

        def runner(r: int) -> None:
            try:
                sched.wait_initial(r)
                results[r] = fn(Comm(world, r), *args)
            except _Aborted:
                errors[r] = _Aborted()
            except DeadlockError as exc:
                errors[r] = exc
                sched.fail(str(exc))
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors[r] = exc
                sched.fail(f"rank {r} failed: {exc!r}")
            finally:
                try:
                    sched.finish(r)
                except DeadlockError as exc:
                    # This rank finished but its peers can never proceed.
                    if errors[r] is None:
                        errors[r] = exc
                except _Aborted:
                    pass

        threads = [
            threading.Thread(target=runner, args=(r,), daemon=True)
            for r in range(nprocs)
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + timeout
        while any(t.is_alive() for t in threads):
            if time.monotonic() > deadline:
                with sched.cv:
                    table = sched.rank_table()
                sched.fail("wall timeout")
                raise SpmdError(
                    f"SPMD run timed out after {timeout}s (deadlock?)\n{table}"
                )
            for t in threads:
                t.join(0.05)
        # Report the root cause: a real error beats a deadlock report beats
        # the _Aborted unwinds it caused in the other ranks.
        for r, exc in enumerate(errors):
            if exc is not None and not isinstance(exc, (_Aborted, DeadlockError)):
                raise SpmdError(f"rank {r} failed: {exc!r}") from exc
        for r, exc in enumerate(errors):
            if isinstance(exc, DeadlockError):
                raise SpmdError(str(exc)) from exc
        if sched.abort is not None:
            raise SpmdError(sched.abort)
        return results
