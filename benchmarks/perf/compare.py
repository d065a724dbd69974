#!/usr/bin/env python3
"""Compare two result sets of ``run.py`` against the ``BENCHMARK.json`` bounds.

``compare.py A/results.json B/results.json`` prints one row per workload x
end-to-end metric with the base median (A), the new median (B), their ratio
and a verdict:

* ``unresolved`` - a side's own spread (quartile distance over its runs, as
  a share of its median) exceeds the bound, so the bound cannot judge it;
* ``regressed`` / ``improved`` - B is worse / better than A by more than the
  bound;
* ``unchanged`` - anything else.

A side with a single run has no spread and is judged on its one value; give
each side several runs (``run.py --calibrate K``) for a verdict that knows
its own noise.  A workload that fails more of what it attempts in B than in
A is ``regressed`` whatever its times say.  Exit code 1 when any row
regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median - the
    steadiness statistic of the benchmark contract."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def untraced_by_workload(path: str) -> Dict[str, List[dict]]:
    with open(path) as fh:
        runs = json.load(fh)["runs"]
    out: Dict[str, List[dict]] = {}
    for r in runs:
        if not r["trace"] and r["metrics"]:
            out.setdefault(r["workload"], []).append(r)
    return out


def verdict(base: List[float], new: List[float], bound: float,
            better: str) -> tuple:
    """``(base median, new median, ratio, verdict, widest own spread)``."""
    a, b = statistics.median(base), statistics.median(new)
    ratio = b / a
    own: Optional[float] = max(
        (spread(v) for v in (base, new) if len(v) >= 2), default=None)
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if own is not None and own > bound:
        word = "unresolved"
    elif worse > bound:
        word = "regressed"
    elif worse < -bound:
        word = "improved"
    else:
        word = "unchanged"
    return a, b, ratio, word, own


def compare(path_a: str, path_b: str, bench: dict) -> List[tuple]:
    side_a, side_b = untraced_by_workload(path_a), untraced_by_workload(path_b)
    rows = []
    for w in (x["name"] for x in bench["workloads"]):
        if w not in side_a or w not in side_b:
            continue
        for m in bench["end_to_end"]:
            values = [[r["metrics"][m["name"]]["value"] for r in side]
                      for side in (side_a[w], side_b[w])]
            rows.append((w, m["name"], m["unit"], m["bound"],
                         *verdict(*values, m["bound"], m["better"])))
        shares = [sum(r["failed"] for r in side) / sum(r["attempted"] for r in side)
                  for side in (side_a[w], side_b[w])]
        word = "regressed" if shares[1] > shares[0] else "unchanged"
        rows.append((w, "failed_share", "ratio", 0.0, shares[0], shares[1],
                     None, word, None))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: compare.py A/results.json B/results.json")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    rows = compare(argv[0], argv[1], bench)
    print(f"{'workload':<12}{'metric':<18}{'unit':<6}{'base':>13}{'new':>13}"
          f"{'new/base':>10}{'bound':>7}{'spread':>8}  verdict")
    for w, name, unit, bound, a, b, ratio, word, own in rows:
        ratio_s = f"{ratio:.4f}" if ratio is not None else "-"
        own_s = f"{100 * own:.1f}%" if own is not None else "-"
        print(f"{w:<12}{name:<18}{unit:<6}{a:>13.6g}{b:>13.6g}{ratio_s:>10}"
              f"{100 * bound:>6.0f}%{own_s:>8}  {word}")
    return 1 if any(r[7] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
