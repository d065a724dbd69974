"""Collate benchmarks/results/*.txt into EXPERIMENTS.md.

Run after the benchmark suite:

    pytest benchmarks/ --benchmark-only
    python benchmarks/make_experiments_md.py
"""

import os

RESULTS = os.path.join(os.path.dirname(__file__), "results")
OUT = os.path.join(os.path.dirname(__file__), "..", "EXPERIMENTS.md")

ORDER = ["fig1", "fig2_3", "fig4a", "fig4b", "fig5", "fig6", "fig7", "fig8",
         "nbx", "ksort", "backend_speedup", "assembly_plan", "obs_phases",
         "spmd_check_overhead", "scenario_batch", "precond",
         "ablation_multilevel", "ablation_gmg", "ablation_erosion_counter",
         "ablation_ccl"]

HEADER = """# EXPERIMENTS — paper vs. reproduced

Every figure of the paper's evaluation, regenerated by `pytest benchmarks/
--benchmark-only` (tables below are the benchmark suite's own output, from
`benchmarks/results/`).  Absolute seconds at Frontera scale come from the
calibrated machine model driven by simulator-measured communication counters
— see DESIGN.md §3 for the substitution rationale; *shape* quantities
(who wins, efficiencies, crossovers, distributions) are the reproduction
targets.

Each table's header records the SPMD execution backend (`repro.runtime`)
and host core count that produced it — wall-clock numbers from different
backends or hosts are not comparable without that provenance.  The
thread-vs-process comparison itself is the `backend_speedup` experiment
below; machine-readable per-backend numbers live in
`benchmarks/results/BENCH_PR1.json` (regenerate with
`python benchmarks/run_all.py --quick`).  The symbolic/numeric split
assembly-plan measurements (`assembly_plan` below) live in
`benchmarks/results/BENCH_PR2.json` (regenerate with
`python benchmarks/bench_assembly_plan.py --quick`, which also enforces the
>= 2x plan-vs-COO gate that CI runs).  The per-phase timing breakdown
(`obs_phases` below) is produced by the `repro.obs` tracing subsystem
(`python benchmarks/bench_obs_phases.py --quick`), which gates identical
span trees across all three SPMD backends and <5% disabled-tracing
overhead, and drops a Chrome trace
(`benchmarks/results/obs_chns_trace.json`) for `chrome://tracing`.

| Experiment | Paper artifact | Benchmark |
|---|---|---|
| E1 | Fig. 1 — region identification | `bench_fig1_region_identification.py` |
| E2 | Figs. 2-3 — zip/unzip assembly layout | `bench_fig23_zip_layout.py` |
| E3 | Fig. 4a — MATVEC strong scaling | `bench_fig4a_matvec_strong.py` |
| E4 | Fig. 4b — MATVEC weak scaling | `bench_fig4b_matvec_weak.py` |
| E5 | Fig. 5 — application scaling | `bench_fig5_application_scaling.py` |
| E6 | Fig. 6 — jet atomization | `bench_fig6_jet.py` |
| E7 | Fig. 7 — progressive refinement | `bench_fig7_progressive_refinement.py` |
| E8 | Fig. 8 — element fraction by level | `bench_fig8_level_fractions.py` |
| E9 | Sec. II-C3c — NBX vs Alltoall | `bench_nbx_vs_alltoall.py` |
| E10 | Sec. II-C3a — k-way hierarchical sort | `bench_ksort.py` |
| — | thread vs process SPMD backend, 8-rank matrix-free MATVEC | `bench_fig4a_matvec_strong.py::test_backend_speedup_8ranks` |
| — | symbolic/numeric split assembly plans vs per-call COO | `bench_assembly_plan.py` |
| — | per-phase timings from `repro.obs` tracing (cross-backend gated) | `bench_obs_phases.py` |
| — | PCD block preconditioning vs Jacobi (NS+PP Krylov iters/step) | `bench_precond.py` |
| A1 | ablation: multi-level vs level-by-level AMR | `bench_ablation_multilevel_refine.py` |
| A2 | ablation: GMG vs Jacobi-CG pressure Poisson | `bench_ablation_gmg.py` |
| A3 | ablation: level-aware erosion counter on/off | `bench_ablation_erosion_counter.py` |
| A4 | ablation: erosion/dilation vs connected components | `bench_ablation_ccl_baseline.py` |
"""


def main() -> None:
    parts = [HEADER]
    for name in ORDER:
        path = os.path.join(RESULTS, f"{name}.txt")
        if not os.path.exists(path):
            parts.append(f"\n## {name}\n\n*(not yet generated — run the "
                         f"benchmarks)*\n")
            continue
        body = open(path).read().strip()
        title, _, rest = body.partition("\n")
        parts.append(f"\n## {title.lstrip('# ')}\n\n```\n{rest.strip()}\n```\n")
    with open(OUT, "w") as fh:
        fh.write("\n".join(parts))
    print(f"wrote {os.path.abspath(OUT)}")


if __name__ == "__main__":
    main()
