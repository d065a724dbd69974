"""SPMD execution backends.

``repro.mpi.comm.run_spmd`` delegates rank execution to one of three
backends, looked up by name in a fixed table.  All three run the one world
contract (:class:`~repro.runtime.base.World`); they differ only in how a
record reaches a rank, how a rank waits and what a hang reports:

``thread`` (default)
    one thread per rank, records by reference — fastest startup, exact
    communication metering, but the GIL serializes rank compute.  A
    deadlock is found from structure (every live rank blocked) and
    reported at once; ``timeout`` only stops a rank stuck computing.
``process``
    one forked OS process per rank, every record pickled through a queue —
    real core-level parallelism for NumPy-heavy ranks (POSIX only).  Each
    wait times out on its own, since no structure is visible in its queues.
``serial``
    the thread transport, its deadlock rule and table included, under a
    round-robin baton — reproducible interleavings for debugging.

Select per call (``run_spmd(..., backend="process")``).  See ``docs/API.md``
("Choosing an execution backend") for guidance and caveats.
"""

from typing import Optional

from .base import DEFAULT_TIMEOUT, Backend
from .process import ProcessBackend
from .serial import SerialBackend
from .thread import ThreadBackend

#: name -> the one instance ``run_spmd`` uses for that name.
_BACKENDS: dict[str, Backend] = {
    b.name: b() for b in (ThreadBackend, ProcessBackend, SerialBackend)
}


def available_backends() -> list[str]:
    """Names ``backend=`` accepts."""
    return sorted(_BACKENDS)


def resolve_backend(name: Optional[str]) -> Backend:
    """The backend called ``name``; ``None`` means ``"thread"``."""
    name = "thread" if name is None else name
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown SPMD backend {name!r}; available: {available_backends()}"
        )
    return _BACKENDS[name]


__all__ = [
    "Backend",
    "ThreadBackend",
    "ProcessBackend",
    "SerialBackend",
    "available_backends",
    "resolve_backend",
    "DEFAULT_TIMEOUT",
]
