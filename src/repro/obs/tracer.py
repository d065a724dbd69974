"""Per-rank tracing and metrics: hierarchical spans, counters, gauges.

The tracer is the measurement substrate behind every timing claim in
EXPERIMENTS.md: the paper's scaling study (Fig. 5) attributes cost to
per-solver, per-phase buckets (NS/PP/VU/CH matvec, ghost exchange, remesh),
and this module is how the reproduction records the same buckets.

Design constraints, in order of priority:

1. **Disabled by default, negligible overhead when disabled.**  Importing
   this module never activates tracing; a disabled ``span(...)`` returns a
   shared no-op context manager after a single thread-local read.  Hot
   paths (the per-MATVEC ghost exchange, the per-call numeric assembly) are
   instrumented unconditionally in library code and rely on this.
2. **Per-rank isolation.**  Simulated SPMD ranks are threads (thread and
   serial backends) or forked processes (process backend).  Tracer state is
   therefore *thread-local*: each rank sees exactly its own spans and
   counters, on every backend, without locks on the hot path.
3. **Deterministic structure.**  Span nesting, span counts, and counter
   values depend only on the code path executed — never on the schedule —
   so cross-backend runs of the same SPMD program produce identical span
   *trees* and counter values (wall times differ; the equivalence tests
   exclude them).

The span tree records *inclusive* wall time per node; *exclusive* time is
derived at snapshot time (inclusive minus the sum of the children's
inclusive times).
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Optional

__all__ = [
    "Tracer",
    "enable",
    "disable",
    "is_enabled",
    "current",
    "span",
    "incr",
    "gauge",
    "snapshot",
    "tracing",
]


class _Node:
    """One name in the span hierarchy: call count + inclusive time."""

    __slots__ = ("name", "count", "total", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.children: dict[str, _Node] = {}

    def snapshot(self) -> dict:
        kids = [c.snapshot() for c in self.children.values()]
        return {
            "name": self.name,
            "count": self.count,
            "inclusive": self.total,
            "exclusive": self.total - sum(k["inclusive"] for k in kids),
            "children": kids,
        }


class _Span:
    """Active span handle (context manager).  One per ``span()`` entry."""

    __slots__ = ("_tracer", "_node", "_t0")

    def __init__(self, tracer: "Tracer", node: _Node) -> None:
        self._tracer = tracer
        self._node = node

    def __enter__(self) -> "_Span":
        self._tracer._stack.append(self._node)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        dt = perf_counter() - self._t0
        node = self._node
        node.count += 1
        node.total += dt
        self._tracer._stack.pop()
        return False


class _NullSpan:
    """Shared no-op span: what ``span()`` returns while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Span/counter/gauge recorder for one rank (one thread of execution)."""

    __slots__ = ("_root", "_stack", "counters", "gauges")

    def __init__(self) -> None:
        self._root = _Node("")
        self._stack: list[_Node] = [self._root]
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}

    # ------------------------------------------------------------- recording

    def span(self, name: str) -> _Span:
        top = self._stack[-1]
        node = top.children.get(name)
        if node is None:
            node = top.children[name] = _Node(name)
        return _Span(self, node)

    def incr(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    # ------------------------------------------------------------- snapshot

    def snapshot(self) -> dict:
        """Plain-data (pickle-friendly) view of everything recorded so far.

        ``spans`` is the forest under the implicit root; each node carries
        ``name``, ``count``, ``inclusive``, ``exclusive`` (seconds), and
        ``children``.
        """
        if len(self._stack) != 1:
            open_names = [n.name for n in self._stack[1:]]
            raise RuntimeError(f"snapshot inside open span(s): {open_names}")
        return {
            "spans": [c.snapshot() for c in self._root.children.values()],
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }


# --------------------------------------------------------------------- state
#
# One tracer per thread of execution (= per simulated rank).  ``_armed``
# marks that tracing was requested: rank threads/processes spawned by
# ``run_spmd`` consult it (via begin_rank) to decide whether to install
# their own tracer.  Forked rank processes inherit it by copy-on-write.

_tls = threading.local()
_armed = False


def enable() -> Tracer:
    """Turn tracing on for the current thread (and arm SPMD rank capture).

    Never called implicitly — importing :mod:`repro.obs` leaves tracing off
    (asserted by the test-suite).
    """
    global _armed
    tr = Tracer()
    _tls.tracer = tr
    _armed = True
    return tr


def disable() -> None:
    """Turn tracing off for the current thread and disarm rank capture."""
    global _armed
    _tls.tracer = None
    _armed = False


def is_enabled() -> bool:
    """True iff the *current thread* has an active tracer."""
    return getattr(_tls, "tracer", None) is not None


def current() -> Optional[Tracer]:
    """The current thread's tracer, or None when tracing is disabled."""
    return getattr(_tls, "tracer", None)


def span(name: str):
    """Context manager timing one region under the current span.

    The single hot-path entry point: when tracing is disabled this is one
    thread-local read plus returning a shared no-op object.
    """
    tr = getattr(_tls, "tracer", None)
    if tr is None:
        return NULL_SPAN
    return tr.span(name)


def incr(name: str, amount: float = 1) -> None:
    """Add ``amount`` to a named counter (no-op while disabled)."""
    tr = getattr(_tls, "tracer", None)
    if tr is not None:
        tr.incr(name, amount)


def gauge(name: str, value: float) -> None:
    """Record the latest value of a named gauge (no-op while disabled)."""
    tr = getattr(_tls, "tracer", None)
    if tr is not None:
        tr.gauge(name, value)


def snapshot() -> Optional[dict]:
    """Snapshot of the current thread's tracer (None while disabled)."""
    tr = getattr(_tls, "tracer", None)
    return tr.snapshot() if tr is not None else None


class tracing:
    """``with obs.tracing() as tr:`` — scoped enable/disable."""

    def __enter__(self) -> Tracer:
        self._prev = getattr(_tls, "tracer", None)
        self._prev_armed = _armed
        return enable()

    def __exit__(self, *exc) -> bool:
        global _armed
        _tls.tracer = self._prev
        _armed = self._prev_armed
        return False


# ----------------------------------------------------------- SPMD rank hooks
#
# run_spmd wraps the rank function with these when the *caller's* thread has
# tracing enabled: each rank gets a fresh tracer for the duration of the run
# and its snapshot rides home on the existing result transport (so the
# process backend ships it through the same pipe/shared-memory path as user
# results — no side channel).


def rank_armed() -> bool:
    """Should SPMD ranks of a new run record traces?"""
    return _armed


def begin_rank() -> Tracer:
    """Install a fresh tracer on the calling rank thread/process."""
    tr = Tracer()
    _tls.tracer = tr
    return tr


def end_rank() -> Optional[dict]:
    """Snapshot and uninstall the rank tracer (returns the snapshot).

    Spans left open by a rank exception are force-closed (unwound without
    accumulating) so the snapshot never masks the original error."""
    tr = getattr(_tls, "tracer", None)
    if tr is None:
        return None
    del tr._stack[1:]
    snap = tr.snapshot()
    _tls.tracer = None
    return snap
