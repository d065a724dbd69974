"""Shared reporting helpers for the figure-reproduction benchmarks.

Every benchmark regenerates one of the paper's figures as a text table and
writes it to ``benchmarks/results/<experiment>.txt`` (untracked driver output)
and stdout, recording paper-reported values next to our measured/modeled
values.  ``make_experiments_md.py`` collates these into EXPERIMENTS.md, the
one committed copy.
"""

from __future__ import annotations

import os
from typing import Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    cols = [
        [str(h)] + [("%g" % r[i]) if isinstance(r[i], float) else str(r[i]) for r in rows]
        for i, h in enumerate(headers)
    ]
    widths = [max(len(c) for c in col) for col in cols]
    def line(vals):
        return " | ".join(v.rjust(w) for v, w in zip(vals, widths))
    out = [line([c[0] for c in cols])]
    out.append("-+-".join("-" * w for w in widths))
    for j in range(len(rows)):
        out.append(line([c[j + 1] for c in cols]))
    return "\n".join(out)


def provenance() -> str:
    """One-line measurement provenance: which SPMD backend produced the
    numbers below, on how many cores.  Benchmark honesty: wall-clock numbers
    from different backends are not comparable without this."""
    from repro.runtime import default_backend_name

    return (
        f"(SPMD backend: {default_backend_name()}; "
        f"host cores: {os.cpu_count()})"
    )


def report(experiment: str, title: str, body: str) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = f"# {experiment}: {title}\n{provenance()}\n\n{body}\n"
    path = os.path.join(RESULTS_DIR, f"{experiment}.txt")
    with open(path, "w") as fh:
        fh.write(text)
    print("\n" + text)
