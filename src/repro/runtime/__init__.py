"""SPMD execution backends.

``repro.mpi.comm.run_spmd`` delegates rank execution and message transport
to one of three backends, looked up by name in a fixed table:

``thread`` (default)
    one thread per rank, zero-copy mailboxes — fastest startup, exact
    communication metering, but the GIL serializes rank compute.
``process``
    one forked OS process per rank with shared-memory ndarray transport —
    real core-level parallelism for NumPy-heavy ranks (POSIX only).
``serial``
    deterministic single-threaded round-robin scheduler — reproducible
    interleavings and structural deadlock reports for debugging.

Select per call (``run_spmd(..., backend="process")``) or globally via the
``REPRO_SPMD_BACKEND`` environment variable.  See ``docs/API.md`` ("Choosing
an execution backend") for guidance and caveats.
"""

from typing import Optional

from .base import (  # noqa: F401
    BACKEND_ENV,
    DEFAULT_TIMEOUT,
    TIMEOUT_ENV,
    Backend,
    default_backend_name,
    resolve_timeout,
)
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
    """The backend called ``name``; ``None`` means
    :func:`default_backend_name`."""
    name = default_backend_name() if name is None else name
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
    "default_backend_name",
    "resolve_backend",
    "resolve_timeout",
    "BACKEND_ENV",
    "TIMEOUT_ENV",
    "DEFAULT_TIMEOUT",
]
