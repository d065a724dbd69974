"""Serial backend: deterministic single-threaded round-robin scheduling.

Ranks are cooperative tasks; exactly one executes at any moment and control
is handed off round-robin at the communication wait points (blocked receive,
collective rendezvous, the NBX drain's blocking probe).  Because the
schedule depends only on the program's communication structure, two runs of
the same program interleave identically — ideal for debugging and for
reproducing heisenbugs found under the thread backend.

Deadlocks are detected by the thread transport's structural rule and table:
a rank whose wait reads false is skipped by the baton until a record
reaches it, and the moment every unfinished rank is blocked the run aborts
with the report naming what each rank waits for (no timeout needed); an NBX
drain whose barrier can never complete is such a wait.  There is no
non-blocking probe, so no rank can spin in a poll loop.

Implementation note: this is the thread backend's transport and launcher
under a baton — ranks are OS threads and records pass by reference, but
only the baton holder runs, so the interleaving is fully deterministic.
"""

from __future__ import annotations

from .thread import ThreadBackend, _Threads


class _Baton(_Threads):
    """The thread transport, but only the baton holder runs: a rank that
    stops hands the baton to the next rank round-robin that may run."""

    def __init__(self, nprocs: int, stats) -> None:
        super().__init__(nprocs, stats)
        self.current = 0

    def _runs(self, me: int) -> bool:
        return self.current == me

    def _handoff(self, me: int) -> None:
        n = len(self._wakeup)
        for step in range(1, n + 1):
            c = (me + step) % n
            if c not in self.finished and c not in self.blocked:
                self.current = c
                self._wakeup[c].notify()
                return


class SerialBackend(ThreadBackend):
    """Deterministic debugging backend (one rank runs at a time)."""

    name = "serial"

    def _transport(self, nprocs: int, stats) -> _Baton:
        return _Baton(nprocs, stats)
