"""Execution-backend abstraction for the SPMD simulator.

The paper's algorithms are SPMD programs written against :class:`repro.mpi.comm.Comm`.
*How* the ranks execute — one thread each, one OS process each, or a
deterministic single-threaded schedule — is a transport decision, not an
algorithmic one, so it lives behind the :class:`Backend` interface defined
here.  ``run_spmd`` picks a backend by name (``backend=``) or from the
``REPRO_SPMD_BACKEND`` environment variable, defaulting to the zero-copy
thread simulator.

A backend supplies a *world* object per communicator.  Worlds are duck-typed;
the contract consumed by :class:`~repro.mpi.comm.Comm` is:

``size``, ``stats``, ``timeout``
    group size, a :class:`~repro.mpi.stats.CommStats`-compatible recorder,
    and the deadlock timeout in seconds.
``post(dest, src, tag, payload)``
    deposit a message in ``dest``'s mailbox (ranks are world-local).
``wait_recv(rank, source, tag) -> (src, tag, payload)``
    blocking matched receive on ``rank``'s own mailbox; raises
    :class:`~repro.mpi.comm.SpmdError` past ``timeout``.
``probe(rank, source, tag) -> (src, tag) | None``
    non-blocking match test.
``exchange(rank, value, combine) -> combined``
    one collective rendezvous: every rank deposits ``value``; ``combine``
    (identical on all ranks) maps the rank-ordered list to the result all
    ranks return.
``ibarrier_arrive(rank, key)`` / ``ibarrier_done(rank, key) -> bool``
    non-blocking barrier used by the NBX sparse exchange.
``subworld(key, ranks) -> world``
    the shared world for the subgroup ``ranks`` (world-local indices);
    ``key`` is identical on every member of a collective split.
``set_attr(key, value)`` / ``get_attr(key, default)``
    communicator attribute cache (the paper's MPI attribute idiom).  The
    process backend keeps attrs rank-local, which every in-repo user is
    compatible with (all keys embed the rank).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Optional

DEFAULT_TIMEOUT = 120.0

#: Environment variable naming the default backend ("thread"|"process"|"serial").
BACKEND_ENV = "REPRO_SPMD_BACKEND"

#: Environment variable overriding the default deadlock timeout (seconds).
TIMEOUT_ENV = "REPRO_SPMD_TIMEOUT"


def format_rank_states(states: dict[int, Optional[str]]) -> str:
    """The per-rank "waiting on" table every backend emits on a deadlock
    timeout — one line per rank, serial-backend style:

        per-rank state:
          rank 0: recv(source=1, tag=0) on comm of size 4
          rank 1: running

    ``states`` maps rank to a wait description (None/empty = running).
    """
    lines = ["per-rank state:"]
    for r in sorted(states):
        lines.append(f"  rank {r}: {states[r] or 'running'}")
    return "\n".join(lines)


class Backend:
    """Executes an SPMD program: ``fn(comm)`` on every rank of a world."""

    #: table name; subclasses set it ("thread", "process", "serial").
    name: str = "?"

    def run(
        self,
        nprocs: int,
        fn: Callable[..., Any],
        args: tuple,
        timeout: float,
        stats,
    ) -> list:
        """Run ``fn(Comm(world, r), *args)`` for ranks ``r in range(nprocs)``
        and return the per-rank results in rank order.

        Must raise :class:`repro.mpi.comm.SpmdError` on any rank failure or
        on a deadlock past ``timeout``, and must meter all traffic into
        ``stats`` so counters agree across backends.
        """
        raise NotImplementedError


def default_backend_name() -> str:
    """The backend ``run_spmd`` uses when none is passed explicitly."""
    return os.environ.get(BACKEND_ENV, "thread")


def resolve_timeout(timeout: Optional[float]) -> float:
    """Explicit argument beats ``REPRO_SPMD_TIMEOUT`` beats the default.

    A ``REPRO_SPMD_TIMEOUT`` that is not a number raises ``ValueError``
    naming the variable and its value.
    """
    if timeout is not None:
        return float(timeout)
    env = os.environ.get(TIMEOUT_ENV)
    if not env:
        return DEFAULT_TIMEOUT
    try:
        return float(env)
    except ValueError:
        raise ValueError(
            f"{TIMEOUT_ENV}={env!r} is not a number of seconds"
        ) from None
