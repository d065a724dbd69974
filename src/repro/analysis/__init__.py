"""repro.analysis — SPMD runtime checkers.

:mod:`repro.analysis.runtime_check`, opt-in via ``REPRO_SPMD_CHECK=1``: a
MUST-style cross-rank collective-matching validator wired into
:class:`repro.mpi.comm.Comm`, and a write-epoch race detector over the
thread backend's shared payload buffers.

DESIGN.md §7 documents what they check and the checker wire protocol.
"""

from .runtime_check import (
    CHECK_ENV,
    BufferTracker,
    CollectiveMismatchError,
    SharedBufferRaceError,
    SpmdCheckError,
    checks_enabled,
    force_checks,
    note_buffer_read,
    note_buffer_write,
    verify_collective,
)

__all__ = [
    "CHECK_ENV",
    "BufferTracker",
    "CollectiveMismatchError",
    "SharedBufferRaceError",
    "SpmdCheckError",
    "checks_enabled",
    "force_checks",
    "note_buffer_read",
    "note_buffer_write",
    "verify_collective",
]
