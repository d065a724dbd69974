"""Collate the paper-figure drivers' tables into EXPERIMENTS.md.

``benchmarks/results/`` is untracked driver output; EXPERIMENTS.md is the
one committed copy of every paper table.  Run after the drivers:

    python -m pytest benchmarks --ignore=benchmarks/perf --benchmark-disable -q
    python benchmarks/make_experiments_md.py
"""

import os
import sys

RESULTS = os.path.join(os.path.dirname(__file__), "results")
OUT = os.path.join(os.path.dirname(__file__), "..", "EXPERIMENTS.md")

#: (id, paper artifact, results file, driver) — E1-E10 are the paper's
#: evaluation, A1-A4 the ablations of paper claims (DESIGN.md §2).
EXPERIMENTS = [
    ("E1", "Fig. 1 — region identification", "fig1",
     "bench_fig1_region_identification.py"),
    ("E2", "Figs. 2-3 — zip/unzip assembly layout", "fig2_3",
     "bench_fig23_zip_layout.py"),
    ("E3", "Fig. 4a — MATVEC strong scaling", "fig4a",
     "bench_fig4a_matvec_strong.py"),
    ("E4", "Fig. 4b — MATVEC weak scaling", "fig4b",
     "bench_fig4b_matvec_weak.py"),
    ("E5", "Fig. 5 — application scaling", "fig5",
     "bench_fig5_application_scaling.py"),
    ("E6", "Fig. 6 — jet atomization", "fig6", "bench_fig6_jet.py"),
    ("E7", "Fig. 7 — progressive refinement", "fig7",
     "bench_fig7_progressive_refinement.py"),
    ("E8", "Fig. 8 — element fraction by level", "fig8",
     "bench_fig8_level_fractions.py"),
    ("E9", "Sec. II-C3c — NBX vs Alltoall", "nbx",
     "bench_nbx_vs_alltoall.py"),
    ("E10", "Sec. II-C3a — k-way hierarchical sort", "ksort",
     "bench_ksort.py"),
    ("A1", "ablation: multi-level vs level-by-level AMR",
     "ablation_multilevel", "bench_ablation_multilevel_refine.py"),
    ("A2", "ablation: each flow block's solver by mesh size (NS, PP, VU)",
     "block_solvers", "bench_block_solvers.py"),
    ("A3", "ablation: level-aware erosion counter on/off",
     "ablation_erosion_counter", "bench_ablation_erosion_counter.py"),
    ("A4", "ablation: erosion/dilation vs connected components",
     "ablation_ccl", "bench_ablation_ccl_baseline.py"),
]

HEADER = """# EXPERIMENTS — paper vs. reproduced

Every figure of the paper's evaluation, regenerated by `python -m pytest
benchmarks --ignore=benchmarks/perf --benchmark-disable` followed by `python
benchmarks/make_experiments_md.py` (the tables below are the drivers' own
output; this file is their only committed copy).  Absolute seconds at
Frontera scale come from the calibrated machine model driven by
simulator-measured communication counters — see DESIGN.md §3 for the
substitution rationale; *shape* quantities (who wins, efficiencies,
crossovers, distributions) are the reproduction targets.

Each table's header records the SPMD execution backend (`repro.runtime`)
and host core count that produced it — wall-clock numbers from different
backends or hosts are not comparable without that provenance.  The
performance trajectory of the solver itself is not here: it is
`benchmarks/perf` (see its README).

| Experiment | Paper artifact | Benchmark |
|---|---|---|
"""


def main() -> None:
    missing = [
        driver for _, _, name, driver in EXPERIMENTS
        if not os.path.exists(os.path.join(RESULTS, f"{name}.txt"))
    ]
    if missing:
        sys.exit("no results from: " + ", ".join(missing)
                 + " — run the drivers first (see this file's docstring)")
    parts = [HEADER + "".join(
        f"| {eid} | {artifact} | `{driver}` |\n"
        for eid, artifact, _, driver in EXPERIMENTS
    )]
    for eid, _, name, _ in EXPERIMENTS:
        with open(os.path.join(RESULTS, f"{name}.txt")) as fh:
            title, _, rest = fh.read().strip().partition("\n")
        parts.append(
            f"\n## {eid} · {title.lstrip('# ')}\n\n```\n{rest.strip()}\n```\n"
        )
    with open(OUT, "w") as fh:
        fh.write("\n".join(parts))
    print(f"wrote {os.path.abspath(OUT)}")


if __name__ == "__main__":
    main()
