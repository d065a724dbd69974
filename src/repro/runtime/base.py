"""The SPMD world contract, written once, and the backend interface.

The paper's algorithms are SPMD programs written against :class:`repro.mpi.comm.Comm`.
*How* the ranks execute — one thread each, one OS process each, or a
deterministic single-threaded schedule — is a transport decision, not an
algorithmic one.  So everything ``Comm`` asks of a communicator (matched
receives, collectives, the non-blocking barrier, splits, attributes) lives
in the one :class:`World` below, and a :class:`Backend` supplies only a
*transport*: how a record reaches a rank, how a rank waits until a
predicate holds, and what a hang reports.  Every receive, collective and
probe blocks in that one wait; no transport offers a non-blocking test.
``run_spmd`` picks a backend by name (``backend=``), defaulting to the
zero-copy thread simulator.

A transport provides ``stats`` (a :class:`~repro.mpi.stats.CommStats`-
compatible recorder), ``lock`` (guards a shared split cache) and:

``send(world, dest, record)``
    hand ``record`` (:meth:`World.deliver`'s arguments after ``rank``) to
    local rank ``dest``'s view of ``world``.
``wait(world, rank, ready, desc)``
    block until ``ready()`` is not None and return it; a wait that can
    never complete raises :class:`DeadlockError` with the backend's report,
    in which this rank's line reads ``desc``.
``register(world)``
    note a new communicator.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.mpi.comm import ANY_SOURCE, ANY_TAG, SpmdError

#: Seconds ``run_spmd`` allows a run when no ``timeout`` is passed.
DEFAULT_TIMEOUT = 120.0

# Record kinds: (kind, src, key, payload), key being the tag, the
# collective's sequence number or the barrier key.
_USER, _CONTRIB, _RESULT, _ARRIVAL = range(4)


class DeadlockError(SpmdError):
    """A wait that can never complete; the message is the backend's report."""


def format_rank_states(states: dict[int, Optional[str]]) -> str:
    """The per-rank "waiting on" table every backend emits on a deadlock
    or a timeout — one line per rank:

        per-rank state:
          rank 0: recv(source=1, tag=0) on comm of size 4
          rank 1: running

    ``states`` maps rank to a wait description (None/empty = running).
    """
    lines = ["per-rank state:"]
    for r in sorted(states):
        lines.append(f"  rank {r}: {states[r] or 'running'}")
    return "\n".join(lines)


class World:
    """One communicator, as :class:`~repro.mpi.comm.Comm` sees it.

    Per local rank it keeps the records that have reached that rank:
    pending user messages, collective results and non-blocking-barrier
    arrivals (rank 0 also keeps the collective contributions); per
    communicator, the split cache and the attributes.  Where ranks share
    memory (thread, serial) one ``World`` serves every member; on the
    process backend each rank process holds its own, and only its rank's
    slots fill.  ``members`` maps local ranks to top-level ranks and
    ``ctx`` is the communicator's context id, identical on every member.
    """

    def __init__(self, transport, members, ctx: tuple = ()) -> None:
        self.transport = transport
        self.members = list(members)
        self.size = len(self.members)
        self.stats = transport.stats
        self.ctx = ctx
        self._pending: list[list] = [[] for _ in self.members]
        self._results: list[dict] = [{} for _ in self.members]
        self._arrivals: list[dict] = [{} for _ in self.members]
        self._contribs: dict = {}  # seq -> {rank: value}, on rank 0
        self._seq = [0] * self.size
        self.split_cache: dict = {}
        self.attrs: dict = {}
        transport.register(self)

    def deliver(self, rank: int, kind: int, src: int, key, payload) -> None:
        """File one record that reached local ``rank``."""
        if kind == _USER:
            self._pending[rank].append((src, key, payload))
        elif kind == _CONTRIB:
            self._contribs.setdefault(key, {})[src] = payload
        elif kind == _RESULT:
            self._results[rank][key] = payload
        else:
            arrived = self._arrivals[rank]
            arrived[key] = arrived.get(key, 0) + 1

    def _match(self, rank: int, source: int, tag: int) -> Optional[int]:
        """Index of ``rank``'s oldest pending message ``(source, tag)``
        matches, the ``ANY_*`` wildcards included."""
        for i, (s, t, _) in enumerate(self._pending[rank]):
            if source in (ANY_SOURCE, s) and tag in (ANY_TAG, t):
                return i
        return None

    # The contract Comm calls ----------------------------------------------

    def post(self, dest: int, src: int, tag: int, payload: Any) -> None:
        self.transport.send(self, dest, (_USER, src, tag, payload))

    def wait_recv(self, rank: int, source: int, tag: int):
        """Blocking matched receive: ``(src, tag, payload)``."""

        def ready():
            i = self._match(rank, source, tag)
            return None if i is None else self._pending[rank].pop(i)

        return self.transport.wait(
            self, rank, ready,
            f"recv(source={source}, tag={tag}) on comm of size {self.size}",
        )

    def exchange(self, rank: int, value: Any, combine: Callable[[list], Any]) -> Any:
        """One collective: rank 0 gathers every rank's ``value``, applies
        ``combine`` (identical on all ranks) to the rank-ordered list and
        sends the result to the others.  Sequence numbers keep back-to-back
        collectives apart."""
        seq = self._seq[rank]
        self._seq[rank] += 1
        where = f"collective #{seq} on comm of size {self.size}"
        if rank:
            self.transport.send(self, 0, (_CONTRIB, rank, seq, value))
            got = self._results[rank]
            # Boxed: a None result (a barrier's) is a result, not "not yet".
            return self.transport.wait(
                self, rank,
                lambda: (got.pop(seq),) if seq in got else None,
                f"{where} (awaiting root)",
            )[0]

        def gathered():
            got = self._contribs.get(seq, {})
            return self._contribs.pop(seq, got) if len(got) >= self.size - 1 else None

        got = self.transport.wait(self, 0, gathered, f"{where} (root)")
        result = combine([value] + [got[r] for r in range(1, self.size)])
        for r in range(1, self.size):
            self.transport.send(self, r, (_RESULT, 0, seq, result))
        return result

    def ibarrier_arrive(self, rank: int, key) -> None:
        # Everyone tells everyone: each arrival travels behind the sender's
        # earlier messages (a per-sender FIFO on every transport), so once
        # all `size` arrivals have reached a rank, so has every message sent
        # to it before them - what the NBX drain loop relies on.  A root
        # counting arrivals and broadcasting completion is not ordered
        # behind the other senders' messages, and loses them.
        for r in range(self.size):
            self.transport.send(self, r, (_ARRIVAL, rank, key, None))

    def probe_until(self, rank: int, source: int, tag: int, key):
        """Blocking probe that gives up once barrier ``key`` completes:
        ``(src, tag)`` of the oldest pending match, else None when all
        ``size`` arrivals have reached ``rank`` (and with them every message
        sent to it before them).  The count is dropped then: no further
        arrival for ``key`` can reach ``rank``."""
        arrived = self._arrivals[rank]

        def ready():
            i = self._match(rank, source, tag)
            if i is not None:
                return self._pending[rank][i][:2]
            if arrived.get(key, 0) < self.size:
                return None
            del arrived[key]
            return ()

        return self.transport.wait(
            self, rank, ready,
            f"probe(source={source}, tag={tag}) until ibarrier {key!r} "
            f"on comm of size {self.size}",
        ) or None

    def subworld(self, key, ranks: list[int]) -> "World":
        """The world of the subgroup ``ranks`` (local indices).

        Splits are collective and ``key`` embeds (member tuple, split
        count), so every member presents the same key: appended to the
        context it gives every member the same fresh context id, and where
        ranks share one world the first arrival builds the sub-world the
        others find.
        """
        with self.transport.lock:
            if key not in self.split_cache:
                self.split_cache[key] = World(
                    self.transport, [self.members[r] for r in ranks],
                    self.ctx + (key,),
                )
            return self.split_cache[key]

    def set_attr(self, key, value) -> None:
        # Rank-local on the process backend: every in-repo key embeds the rank.
        self.attrs[key] = value

    def get_attr(self, key, default=None):
        return self.attrs.get(key, default)


class Backend:
    """Executes an SPMD program: ``fn(comm)`` on every rank of a world.

    A subclass sets ``name`` and defines ``run(nprocs, fn, args, timeout,
    stats)``: it runs ``fn(Comm(world, r), *args)`` for ranks ``r in
    range(nprocs)`` and returns the per-rank results in rank order.  It
    must raise :class:`repro.mpi.comm.SpmdError` on any rank failure, on a
    deadlock and on a run still going past ``timeout``, and must meter all
    traffic into ``stats`` so counters agree across backends.
    """

    #: table name; subclasses set it ("thread", "process", "serial").
    name: str = "?"

