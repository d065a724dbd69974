"""Opt-in SPMD runtime checkers (``REPRO_SPMD_CHECK=1``).

These checkers verify SPMD correctness while the program runs, in the
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

**Shared-buffer races.**  The thread backend's transport is zero-copy:
payloads and collective results are shared by reference between rank
threads.  :class:`BufferTracker` implements a happens-before write-epoch
race detector over those buffers: the epoch advances at every collective
rendezvous (the transport's only synchronization points), sends/receives
record read accesses automatically, and SPMD code declares intentional
writes via :func:`note_buffer_write`.  Two accesses to the same underlying
buffer from different ranks within one epoch, at least one a write, raise
:class:`SharedBufferRaceError` carrying both stack traces.  Accesses are
keyed on the ndarray *base* buffer, so views alias correctly.

Both checkers are disabled by default; the fast path is one module-level
function call per collective.  Overhead of the enabled checkers is
visible to the obs layer as ``spmdcheck.*`` spans.
"""

from __future__ import annotations

import os
import sys
import threading
import traceback
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


class SharedBufferRaceError(SpmdCheckError):
    """Unsynchronized cross-rank write to a zero-copy shared buffer."""


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
        obs.incr("spmdcheck.collectives")
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


# --------------------------------------------------------------------------
# Shared-buffer write-epoch race detection (thread backend)


def _buffer_root(arr: np.ndarray) -> Any:
    """The object owning the underlying memory (collapses view chains)."""
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr


def _access_stack(limit: int = 12) -> str:
    frames = traceback.extract_stack()[:-2]
    kept = [
        f
        for f in frames
        if not any(frag in f.filename for frag in _INFRA_FRAGMENTS)
        or "tests" in f.filename
    ]
    return "".join(traceback.format_list(kept[-limit:])).rstrip()


class _Access:
    __slots__ = ("rank", "epoch", "kind", "stack", "buf")

    def __init__(self, rank: int, epoch: int, kind: str, stack: str, buf: Any):
        self.rank = rank
        self.epoch = epoch
        self.kind = kind  # "send" | "recv" | "read" | "write"
        self.stack = stack
        self.buf = buf  # strong ref: keeps id() stable for the epoch


class BufferTracker:
    """Happens-before (write-epoch) race detector for zero-copy buffers.

    One tracker per top-level thread-backend world, shared by subworlds.
    The epoch counter advances inside every collective rendezvous, at the
    instant all ranks are blocked in the barrier — accesses in different
    epochs are therefore ordered, and only same-epoch cross-rank access
    pairs with at least one write can race.  Sub-communicator collectives
    bump the same global epoch: an over-approximation (a subcomm barrier
    does not order non-members) that can miss races but never reports a
    false one... a racing pair it *does* report genuinely had no ordering
    barrier between its two accesses on this transport.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.epoch = 0
        self.races_detected = 0
        self._accesses: dict[int, list[_Access]] = {}

    def bump_epoch(self) -> None:
        """Advance the epoch (call only while all ranks sit in a barrier)."""
        with self._lock:
            self.epoch += 1
            self._accesses.clear()

    def record_payload(self, payload: Any, rank: int, kind: str) -> None:
        """Record accesses for every ndarray reachable in ``payload``."""
        for leaf in _ndarray_leaves(payload):
            self.record(leaf, rank, kind)

    def record(self, arr: np.ndarray, rank: int, kind: str) -> None:
        root = _buffer_root(arr)
        write = kind == "write"
        with self._lock:
            acc = _Access(rank, self.epoch, kind, _access_stack(), root)
            lst = self._accesses.setdefault(id(root), [])
            for prev in lst:
                if prev.rank != rank and (write or prev.kind == "write"):
                    self.races_detected += 1
                    obs.incr("spmdcheck.races")
                    raise SharedBufferRaceError(
                        "shared-buffer race on the zero-copy transport "
                        f"(epoch {self.epoch}, no barrier between accesses):\n"
                        f"  rank {prev.rank} {prev.kind} "
                        f"{_describe(prev.buf)} at:\n{_indent(prev.stack)}\n"
                        f"  rank {rank} {kind} {_describe(root)} at:\n"
                        f"{_indent(acc.stack)}"
                    )
            lst.append(acc)


def _ndarray_leaves(payload: Any, depth: int = 0):
    if isinstance(payload, np.ndarray):
        yield payload
    elif depth < 4:
        if isinstance(payload, (tuple, list)):
            for item in payload:
                yield from _ndarray_leaves(item, depth + 1)
        elif isinstance(payload, dict):
            for item in payload.values():
                yield from _ndarray_leaves(item, depth + 1)


def _describe(buf: Any) -> str:
    if isinstance(buf, np.ndarray):
        return f"ndarray(dtype={buf.dtype}, shape={buf.shape})"
    return type(buf).__name__


def _indent(text: str, pad: str = "    ") -> str:
    return "\n".join(pad + line for line in text.splitlines())


def _tracker_of(comm) -> Optional[BufferTracker]:
    return getattr(getattr(comm, "_world", comm), "tracker", None)


def note_buffer_write(comm, arr: np.ndarray) -> None:
    """Declare an in-place write to ``arr`` by this rank.

    SPMD code that intentionally mutates an array which may be shared with
    another rank (sent, received, or a collective result on the thread
    backend) calls this before writing; with ``REPRO_SPMD_CHECK=1`` the
    tracker raises :class:`SharedBufferRaceError` if another rank touched
    the same buffer since the last barrier.  No-op on backends without a
    zero-copy transport (process) and when checks are disabled.
    """
    tracker = _tracker_of(comm)
    if tracker is not None and isinstance(arr, np.ndarray):
        tracker.record(arr, comm.rank, "write")


def note_buffer_read(comm, arr: np.ndarray) -> None:
    """Declare a read of a possibly-shared buffer (see
    :func:`note_buffer_write`)."""
    tracker = _tracker_of(comm)
    if tracker is not None and isinstance(arr, np.ndarray):
        tracker.record(arr, comm.rank, "read")
