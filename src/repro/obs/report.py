"""Reduce per-rank trace snapshots into a world-level report.

A :class:`WorldReport` is the observability analogue of the paper's Fig. 5
breakdown: for every span path it carries per-rank inclusive/exclusive
times reduced to min/max/mean plus the *imbalance factor* ``max/mean`` (the
standard load-balance metric; 1.0 = perfectly balanced), and for every
counter the per-rank values plus their sum.

:func:`world_report` builds one from snapshots already in hand (e.g. the
per-rank traces ``run_spmd`` collected automatically, or a single local
snapshot).

Span identity is the slash-joined path from the root (``"chns.step/ch"``),
so differently-nested spans with the same leaf name stay distinct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def _flatten(nodes: Sequence[dict], prefix: str, out: dict) -> None:
    for node in nodes:
        path = f"{prefix}/{node['name']}" if prefix else node["name"]
        out[path] = node
        _flatten(node["children"], path, out)


def flatten_spans(snapshot: dict) -> dict:
    """Map span path -> node dict for one rank snapshot."""
    out: dict = {}
    _flatten(snapshot.get("spans", []), "", out)
    return out


@dataclass
class SpanStat:
    """Cross-rank statistics for one span path."""

    path: str
    count: int  # per-rank call count (ranks that entered the span)
    n_ranks: int  # how many ranks entered this span
    inclusive_min: float
    inclusive_max: float
    inclusive_mean: float
    exclusive_mean: float
    imbalance: float  # inclusive max/mean over participating ranks

    @property
    def depth(self) -> int:
        return self.path.count("/")

    @property
    def name(self) -> str:
        return self.path.rsplit("/", 1)[-1]


class WorldReport:
    """Merged view over the per-rank snapshots of one run."""

    def __init__(self, snapshots: Sequence[dict]):
        self.snapshots = [s for s in snapshots if s is not None]
        self.n_ranks = len(self.snapshots)
        per_rank = [flatten_spans(s) for s in self.snapshots]
        # Union of paths, ordered by first appearance walking rank 0, 1, ...
        # (pre-order within each rank) — deterministic across backends.
        paths: list[str] = []
        seen = set()
        for flat in per_rank:
            for p in flat:
                if p not in seen:
                    seen.add(p)
                    paths.append(p)
        self.spans: dict[str, SpanStat] = {}
        for p in paths:
            nodes = [flat[p] for flat in per_rank if p in flat]
            inc = [n["inclusive"] for n in nodes]
            exc = [n["exclusive"] for n in nodes]
            mean = sum(inc) / len(inc)
            self.spans[p] = SpanStat(
                path=p,
                count=max(n["count"] for n in nodes),
                n_ranks=len(nodes),
                inclusive_min=min(inc),
                inclusive_max=max(inc),
                inclusive_mean=mean,
                exclusive_mean=sum(exc) / len(exc),
                imbalance=(max(inc) / mean) if mean > 0 else 1.0,
            )
        self.counters: dict[str, list] = {}
        for snap in self.snapshots:
            for k in snap.get("counters", {}):
                self.counters.setdefault(k, [])
        for k in self.counters:
            self.counters[k] = [
                snap.get("counters", {}).get(k, 0) for snap in self.snapshots
            ]

    # ------------------------------------------------------------- queries

    def span_tree_signature(self) -> list:
        """Schedule-independent identity of the trace: every span path with
        its per-rank call counts, plus every counter with its per-rank
        values — everything except wall times.  Two runs of the same SPMD
        program must produce equal signatures on every backend."""
        sig = []
        for p in sorted(self.spans):
            counts = []
            for snap in self.snapshots:
                flat = flatten_spans(snap)
                counts.append(flat[p]["count"] if p in flat else 0)
            sig.append((p, tuple(counts)))
        for k in sorted(self.counters):
            sig.append((f"counter:{k}", tuple(self.counters[k])))
        return sig

    def phase_seconds(self, path: str) -> float:
        """Mean inclusive seconds of one span path (0.0 if never entered)."""
        st = self.spans.get(path)
        return st.inclusive_mean if st is not None else 0.0

    # ------------------------------------------------------------ plain data

    def to_dict(self) -> dict:
        return {
            "n_ranks": self.n_ranks,
            "spans": [
                {
                    "path": s.path,
                    "count": s.count,
                    "n_ranks": s.n_ranks,
                    "inclusive_min_s": s.inclusive_min,
                    "inclusive_max_s": s.inclusive_max,
                    "inclusive_mean_s": s.inclusive_mean,
                    "exclusive_mean_s": s.exclusive_mean,
                    "imbalance": s.imbalance,
                }
                for s in self.spans.values()
            ],
            "counters": {
                k: {"per_rank": v, "total": sum(v)}
                for k, v in self.counters.items()
            },
        }

def world_report(snapshots) -> WorldReport:
    """Build a :class:`WorldReport` from per-rank snapshots (or one dict)."""
    if isinstance(snapshots, dict):
        snapshots = [snapshots]
    return WorldReport(list(snapshots))

