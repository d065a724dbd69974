"""repro.obs — per-rank tracing and metrics for the whole stack.

The instrument panel behind the reproduction's performance claims:
hierarchical :func:`span` timers with inclusive/exclusive attribution,
a few named :func:`incr` work counters, per-rank in-memory
trace buffers, and SPMD-aware reduction of per-rank traces into world-level
reports (min/max/mean/imbalance per span).

Tracing is **disabled by default** and importing this module never enables
it; the disabled fast path is a single thread-local read.  Typical use::

    import repro.obs as obs

    obs.enable()                      # or obs.tracing() as a context manager
    ...                               # instrumented code runs normally
    report = obs.world_report(obs.snapshot())
    report.to_dict()                  # per-span min/max/mean, counters

Around SPMD runs nothing extra is needed: when the calling thread has
tracing enabled, ``run_spmd`` gives every rank its own tracer and ships the
per-rank snapshots home on the existing result transport (thread, process,
or serial backend alike).  They are available afterwards as
:func:`last_spmd_report`.

Span taxonomy and the relation to ``CommStats`` and ``repro.perf`` are
documented in DESIGN.md §6; the public API in docs/API.md.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .report import (  # noqa: F401
    SpanStat,
    WorldReport,
    flatten_spans,
    world_report,
)
from .tracer import (  # noqa: F401
    NULL_SPAN,
    Tracer,
    begin_rank,
    disable,
    enable,
    end_rank,
    incr,
    is_enabled,
    rank_armed,
    snapshot,
    span,
    tracing,
)

#: Per-rank snapshots of the most recent traced ``run_spmd`` on this thread
#: (set by repro.mpi.comm.run_spmd; None until a traced run completes).
_last_spmd: Optional[list] = None


def _set_last_spmd(snaps: Sequence[dict]) -> None:
    global _last_spmd
    _last_spmd = list(snaps)


def last_spmd_report() -> Optional[WorldReport]:
    """World-level report over the per-rank snapshots of the most recent
    traced SPMD run (None if untraced)."""
    if not _last_spmd:
        return None
    return WorldReport(_last_spmd)


__all__ = [
    "Tracer",
    "WorldReport",
    "SpanStat",
    "NULL_SPAN",
    "enable",
    "disable",
    "is_enabled",
    "span",
    "incr",
    "snapshot",
    "tracing",
    "world_report",
    "flatten_spans",
    "last_spmd_report",
    "begin_rank",
    "end_rank",
    "rank_armed",
]
