"""repro.analysis — SPMD runtime checker.

:mod:`repro.analysis.runtime_check`, opt-in via ``REPRO_SPMD_CHECK=1``: a
MUST-style cross-rank collective-matching validator wired into
:class:`repro.mpi.comm.Comm`.

DESIGN.md §7 documents what it checks and the checker wire protocol.
"""

from .runtime_check import (
    CHECK_ENV,
    CollectiveMismatchError,
    SpmdCheckError,
    checks_enabled,
    force_checks,
    verify_collective,
)

__all__ = [
    "CHECK_ENV",
    "CollectiveMismatchError",
    "SpmdCheckError",
    "checks_enabled",
    "force_checks",
    "verify_collective",
]
