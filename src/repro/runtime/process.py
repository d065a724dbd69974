"""Process-per-rank backend: true parallelism for NumPy-heavy ranks.

Each rank is a forked OS process, so rank compute never shares a GIL.  The
transport is one ``multiprocessing.Queue`` inbox per top-level rank; every
record, payload included, crosses the process boundary pickled through it.
``fork`` keeps the SPMD closure and its captured arrays out of pickle
entirely — children inherit them copy-on-write.

Each rank process holds its own :class:`~repro.runtime.base.World` per
communicator.  Sub-communicators never allocate new OS resources: a split
derives a *context id* (deterministically, because splits are collective)
and routes through the top-level inboxes with world-local ranks translated
to global ones — the same context-id trick real MPI uses.  A waiting rank
pumps its inbox until the record it waits for has been filed.

Counters live in a shared array that every rank's
:class:`~repro.mpi.stats.CommStats` counts into, so ``comm.stats`` shows the
same global live view as the thread backend; the parent folds the totals
back into the caller's ``CommStats`` when the run completes.  Each rank also
writes its last-known state (a wait, ``running`` or ``finished``) into a
shared board that the parent dumps if the run times out.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import threading
import time
import traceback

from .base import Backend, DeadlockError, World, format_rank_states

_STATE_SLOT = 200  # bytes of last-known-state per rank


class _StateBoard:
    """Fixed-slot shared byte array: one last-known-state string per rank."""

    def __init__(self, array, nprocs: int) -> None:
        self._a = array
        self.nprocs = nprocs

    def set(self, rank: int, desc: str) -> None:
        data = desc.encode("utf-8", "replace")[: _STATE_SLOT - 1]
        lo = rank * _STATE_SLOT
        self._a[lo : lo + len(data) + 1] = data + b"\x00"

    def get(self, rank: int) -> str:
        lo = rank * _STATE_SLOT
        raw = bytes(self._a[lo : lo + _STATE_SLOT])
        return raw.split(b"\x00", 1)[0].decode("utf-8", "replace")

    def dump(self) -> str:
        """Serial-style structural table (deadlock reporter parity)."""
        return format_rank_states(
            {r: self.get(r) for r in range(self.nprocs)}
        )


class _Inboxes:
    """Process transport: one queue inbox per top-level rank.

    A record carries its communicator's context id and is filed into this
    rank's world of that context.
    """

    def __init__(self, inboxes, me: int, stats, board, timeout: float) -> None:
        self.inboxes = inboxes
        self.me = me
        self.stats = stats
        self.board = board
        self.timeout = timeout
        self.lock = threading.Lock()
        self._worlds: dict = {}
        self._orphans: dict = {}

    def register(self, world: World) -> None:
        self._worlds[world.ctx] = world
        for rec in self._orphans.pop(world.ctx, []):
            self._file(rec)

    def send(self, world: World, dest: int, record: tuple) -> None:
        self.inboxes[world.members[dest]].put((world.ctx, dest, *record))

    def _file(self, rec: tuple) -> None:
        ctx, dest, kind, src, key, payload = rec
        world = self._worlds.get(ctx)
        if world is None:
            # For a sub-communicator this rank has not created yet (the
            # sender raced ahead); held until the split completes here.
            self._orphans.setdefault(ctx, []).append(rec)
        else:
            world.deliver(dest, kind, src, key, payload)

    def _take(self, seconds: float) -> None:
        """File every queued record, first waiting up to ``seconds`` for one."""
        inbox = self.inboxes[self.me]
        try:
            self._file(inbox.get(timeout=max(seconds, 0.0)))
            while True:
                self._file(inbox.get_nowait())
        except queue_mod.Empty:
            return

    def wait(self, world: World, rank: int, ready, desc: str):
        self.board.set(self.me, desc)
        deadline = time.monotonic() + self.timeout
        while (out := ready()) is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # The board keeps `desc` as this rank's last-known state.
                raise DeadlockError(
                    f"{desc} timed out — deadlock?\n{self.board.dump()}"
                )
            self._take(min(remaining, 0.5))
        self.board.set(self.me, "running")
        return out


def _child_main(rank, nprocs, fn, args, inboxes, result_q, shared, board_arr, timeout):
    from repro.mpi.comm import Comm
    from repro.mpi.stats import CommStats

    board = _StateBoard(board_arr, nprocs)
    transport = _Inboxes(inboxes, rank, CommStats(shared), board, timeout)
    world = World(transport, range(nprocs))
    try:
        result = fn(Comm(world, rank), *args)
        board.set(rank, "finished")
        try:
            result_q.put(("ok", rank, result))
        except Exception as exc:  # result not picklable
            result_q.put(
                ("err", rank, f"result of rank {rank} not picklable: {exc!r}")
            )
    except BaseException as exc:  # noqa: BLE001 - serialized to the parent
        # The message once, then the stack (format_exc would repeat it).
        msg = f"{type(exc).__name__}: {exc}"
        tb = "".join(traceback.format_tb(exc.__traceback__)).rstrip()
        result_q.put(
            ("err", rank, f"{msg}\nTraceback (most recent call last):\n{tb}")
        )


class ProcessBackend(Backend):
    """Rank-per-OS-process backend over fork and queues."""

    name = "process"

    @staticmethod
    def is_available() -> bool:
        return "fork" in mp.get_all_start_methods()

    def run(self, nprocs, fn, args, timeout, stats) -> list:
        from repro.mpi.comm import SpmdError
        from repro.mpi.stats import CommStats

        if not self.is_available():
            raise SpmdError(
                "process backend needs the 'fork' start method (POSIX only); "
                "use backend='thread' or 'serial'"
            )
        ctx = mp.get_context("fork")
        inboxes = [ctx.Queue() for _ in range(nprocs)]
        result_q = ctx.Queue()
        shared = ctx.Array("q", len(CommStats.FIELDS), lock=True)
        board_arr = ctx.Array("c", nprocs * _STATE_SLOT, lock=False)
        board = _StateBoard(board_arr, nprocs)
        procs = [
            ctx.Process(
                target=_child_main,
                args=(r, nprocs, fn, args, inboxes, result_q, shared,
                      board_arr, timeout),
                daemon=True,
            )
            for r in range(nprocs)
        ]
        for p in procs:
            p.start()

        results: list = [None] * nprocs
        done = [False] * nprocs
        # Grace margin: every wait (a collective root's too) times out in
        # `_Inboxes.wait` at `timeout` and reports a precise error; the
        # parent backstop only fires for a rank that never waits (a rank
        # stuck computing).
        deadline = time.monotonic() + timeout + 2.0
        try:
            while not all(done):
                try:
                    kind, r, payload = result_q.get(timeout=0.1)
                except queue_mod.Empty:
                    if time.monotonic() > deadline:
                        raise SpmdError(
                            f"SPMD run timed out after {timeout}s (deadlock?)\n"
                            "last-known " + board.dump()
                        )
                    dead = [
                        r for r in range(nprocs)
                        if not done[r] and not procs[r].is_alive()
                        and procs[r].exitcode not in (0, None)
                    ]
                    if dead:
                        r = dead[0]
                        raise SpmdError(
                            f"rank {r} died with exit code {procs[r].exitcode} "
                            "before reporting a result"
                        )
                    continue
                if kind == "err":
                    raise SpmdError(f"rank {r} failed: {payload}")
                results[r] = payload
                done[r] = True
        finally:
            for p in procs:
                if p.is_alive():
                    p.terminate()
            for p in procs:
                p.join(2.0)
            for q in [*inboxes, result_q]:
                q.close()
                q.cancel_join_thread()
            # Fold the shared counters into the caller's stats object so the
            # aggregate matches the thread backend exactly.
            stats.merge(CommStats(shared).snapshot())
        return results
