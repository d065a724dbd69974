"""Opt-in SPMD runtime checker (``REPRO_SPMD_CHECK=1``).

The checker verifies SPMD correctness while the program runs, in the
spirit of MUST's runtime MPI correctness analysis, riding this repo's own
transport.

**Collective matching.**  Before executing, every blocking collective on
:class:`repro.mpi.comm.Comm` publishes a *fingerprint* — operation name,
user call site, and (for symmetric operations) the payload's dtype/shape
signature — through one extra transport rendezvous.  Every rank compares
the gathered fingerprints and raises :class:`CollectiveMismatchError`
naming the diverging ranks and call sites the moment ranks disagree, instead
of deadlocking or silently corrupting a reduction.  The fingerprint exchange
deliberately bypasses ``CommStats`` metering, so enabling checks never
changes the counters the equivalence tests pin down.

A rank that mutates a buffer it shares with another rank on the zero-copy
thread transport is not checked here: the cross-backend equivalence suite
catches it, because the copying process backend then returns a different
result (DESIGN.md §7).

The checker is disabled by default; the fast path is one module-level
function call per collective.  Overhead of the enabled checker is visible
to the obs layer as ``spmdcheck.*`` spans.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Optional

import numpy as np

from .. import obs

#: Environment variable enabling the runtime checkers ("1"/"true"/"on").
CHECK_ENV = "REPRO_SPMD_CHECK"

#: Test/benchmark override: force-enable (True), force-disable (False), or
#: defer to the environment (None).
_FORCED: Optional[bool] = None


def checks_enabled() -> bool:
    """Are the runtime SPMD checkers active?  (One dict lookup when not
    forced — this is the per-collective fast path.)"""
    if _FORCED is not None:
        return _FORCED
    return os.environ.get(CHECK_ENV, "").lower() in ("1", "true", "on")


class force_checks:
    """Context manager pinning :func:`checks_enabled` for tests/benchmarks."""

    def __init__(self, enabled: Optional[bool]):
        self._value = enabled
        self._saved: Optional[bool] = None

    def __enter__(self) -> "force_checks":
        global _FORCED
        self._saved = _FORCED
        _FORCED = self._value
        return self

    def __exit__(self, *exc) -> None:
        global _FORCED
        _FORCED = self._saved


class SpmdCheckError(RuntimeError):
    """Base class for runtime-checker verdicts."""


class CollectiveMismatchError(SpmdCheckError):
    """Ranks disagreed on which collective to execute (or on its signature)."""


# --------------------------------------------------------------------------
# Collective matching

#: Path fragments whose frames are infrastructure, not user call sites.
_INFRA_FRAGMENTS = (
    os.path.join("repro", "mpi", "comm.py"),
    os.path.join("repro", "analysis", ""),
    os.path.join("repro", "obs", ""),
    os.path.join("repro", "runtime", ""),
)


def _user_call_site() -> str:
    """``file:line`` of the innermost frame outside the comm/obs/runtime
    infrastructure — the place the user actually invoked the collective."""
    frame = sys._getframe(1)
    while frame is not None:
        fname = frame.f_code.co_filename
        if not any(frag in fname for frag in _INFRA_FRAGMENTS):
            return f"{os.path.basename(fname)}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


def _value_signature(value: Any, depth: int = 0) -> Any:
    """Hashable dtype/shape summary of a collective payload."""
    if value is None:
        return "none"
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, tuple(value.shape))
    if isinstance(value, (bool, int, float, complex, str, bytes)):
        return type(value).__name__
    if depth < 3 and isinstance(value, (tuple, list)):
        return (
            type(value).__name__,
            tuple(_value_signature(v, depth + 1) for v in value[:8]),
        )
    if isinstance(value, dict):
        return ("dict", len(value))
    return type(value).__name__


def collective_fingerprint(op: str, value: Any, symmetric: bool) -> tuple:
    """What each rank publishes before a collective executes."""
    return (op, _user_call_site(), _value_signature(value) if symmetric else None)


def verify_collective(comm, op: str, value: Any, symmetric: bool) -> None:
    """Cross-rank fingerprint agreement check (no-op unless enabled).

    Runs one extra unmetered rendezvous on ``comm``'s world; raises
    :class:`CollectiveMismatchError` on *every* rank when fingerprints
    disagree, naming the diverging ranks and their call sites.
    """
    if not checks_enabled():
        return
    with obs.span("spmdcheck.collective"):
        fp = collective_fingerprint(op, value, symmetric)
        all_fps = comm._world.exchange(comm.rank, fp, list)
        ref = all_fps[0]
        bad = [r for r, got in enumerate(all_fps) if got != ref]
        if not bad:
            return
        lines = ["SPMD collective mismatch — ranks disagree on the next collective:"]
        for r, (r_op, r_site, r_sig) in enumerate(all_fps):
            sig = f" sig={r_sig}" if r_sig is not None else ""
            marker = "  <-- diverges" if r in bad else ""
            lines.append(f"  rank {r}: {r_op} @ {r_site}{sig}{marker}")
        lines.append(f"diverging ranks (vs rank 0): {bad}")
        raise CollectiveMismatchError("\n".join(lines))
