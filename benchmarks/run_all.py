"""Unified benchmark runner: one command, machine-readable output.

Runs the SPMD-bound benchmarks (distributed MATVEC strong scaling, the
hierarchical k-way sort, NBX vs dense exchange) on every available execution
backend and writes a JSON report seeding the perf trajectory across PRs:

    PYTHONPATH=src python benchmarks/run_all.py --quick

Output (default ``benchmarks/results/BENCH_PR1.json``) records, per number,
the backend that produced it plus host metadata — benchmark honesty demands
the provenance ride with the measurement.  The ``--quick`` profile is sized
for CI (< ~2 min on one core); omit it for the full mesh/key counts.

The assembly-plan section (symbolic/numeric split vs per-call COO assembly,
``bench_assembly_plan.py``) runs as part of every invocation and is also
written standalone to ``benchmarks/results/BENCH_PR2.json``; the run fails
if the plan path is not >= 2x faster than the reference path on the quick
problem size.

The obs-phases section (``bench_obs_phases.py``) traces a distributed
MATVEC and a short CHNS run through ``repro.obs`` on every backend, prints
the per-phase timing table (ghost exchange, numeric assembly, Newton solve,
remesh), and fails the run if the backends disagree on the span-tree
signature or if disabled tracing costs more than 5% on the assembly hot
path.  It drops a Chrome trace of the CHNS run into
``benchmarks/results/obs_chns_trace.json``.

The precond section (``bench_precond.py``) reruns the quick
``rising_bubble_2d`` scenario with Jacobi vs PCD preconditioning of the NS
solve and fails the run unless PCD reduces NS+PP Krylov iterations per step
at matched tolerance (standalone report: ``results/BENCH_PR8.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

import bench_assembly_plan
import bench_obs_phases
import bench_precond
import bench_scenarios
import bench_spmd_check
from _report import host_provenance

from repro.fem.operators import stiffness_matrix
from repro.mesh.distributed import DistributedField
from repro.mesh.mesh import mesh_from_field
from repro.mpi.comm import run_spmd
from repro.mpi.sort import is_globally_sorted, kway_sort, sample_sort
from repro.mpi.sparse_exchange import dense_exchange, nbx_exchange
from repro.mpi.stats import CommStats
from repro.runtime import ProcessBackend, available_backends

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "results", "BENCH_PR1.json")


def usable_backends() -> list[str]:
    names = [n for n in ("thread", "process", "serial") if n in available_backends()]
    if not ProcessBackend.is_available() and "process" in names:
        names.remove("process")
    return names


def bench_matvec(backends: list[str], quick: bool) -> dict:
    """Distributed MATVEC strong scaling per backend (the Fig. 4a kernel)."""

    def phi(x):
        return np.linalg.norm(x - 0.5, axis=1) - 0.3

    max_level = 6 if quick else 7
    mesh = mesh_from_field(phi, 2, max_level=max_level, min_level=4, threshold=0.03)
    Ke = stiffness_matrix(mesh.elem_h(), mesh.dim)
    u = np.ones(mesh.n_nodes)
    n_iters = 2 if quick else 3

    def fn(comm):
        df = DistributedField(comm, mesh)
        owned = df.from_global(u)
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(n_iters):
            owned = df.matvec(Ke[df.elem_lo : df.elem_hi], owned)
            owned /= max(np.abs(owned).max(), 1e-30)
        comm.barrier()
        return (time.perf_counter() - t0) / n_iters

    out: dict = {"n_elems": int(mesh.n_elems), "ranks": {}, "n_iters": n_iters}
    for p in (1, 2, 4, 8):
        out["ranks"][p] = {}
        for bk in backends:
            stats = CommStats()
            t0 = time.perf_counter()
            times = run_spmd(p, fn, stats=stats, backend=bk, timeout=300)
            wall = time.perf_counter() - t0
            out["ranks"][p][bk] = {
                "max_rank_time_s": round(max(times), 5),
                "wall_s": round(wall, 5),
                "bytes_sent": stats.snapshot()["bytes_sent"],
                "messages": stats.snapshot()["messages"],
            }
    if "thread" in backends and "process" in backends:
        # Speedup is measured on the compute-dense matrix-free kernel
        # (per-element on-the-fly assembly) at 8 ranks — the same workload
        # gated in bench_fig4a_matvec_strong.py.  The batched-GEMM numbers
        # above spend microseconds of compute per rank, so their
        # thread/process ratio measures transport latency, not scalability.
        mf_mesh = mesh_from_field(
            phi, 2, max_level=9, min_level=4, threshold=0.03
        )
        mf_u = np.ones(mf_mesh.n_nodes)
        mf_iters = 2 if quick else 6

        def fn_mf(comm):
            df = DistributedField(comm, mf_mesh)
            owned = df.from_global(mf_u)
            comm.barrier()
            for _ in range(mf_iters):
                owned = df.matvec_matrix_free(owned)
                owned /= max(np.abs(owned).max(), 1e-30)
            comm.barrier()

        walls = {}
        for bk in ("thread", "process"):
            t0 = time.perf_counter()
            run_spmd(8, fn_mf, backend=bk, timeout=600)
            walls[bk] = time.perf_counter() - t0
        out["matrix_free_8ranks"] = {
            "n_elems": int(mf_mesh.n_elems),
            "n_iters": mf_iters,
            "thread_wall_s": round(walls["thread"], 5),
            "process_wall_s": round(walls["process"], 5),
        }
        out["thread_vs_process_speedup_8ranks"] = round(
            walls["thread"] / walls["process"], 3
        )
    return out


def bench_ksort(backends: list[str], quick: bool) -> dict:
    """Hierarchical k-way sort + flat sample sort; serial determinism check."""
    nprocs = 8
    n_keys = 8_000 if quick else 20_000
    rng = np.random.default_rng(0)
    data = [
        rng.integers(0, 2**60, n_keys // nprocs).astype(np.uint64)
        for _ in range(nprocs)
    ]

    def run(sorter, bk, **kw):
        stats = CommStats()

        def fn(comm):
            out = sorter(comm, data[comm.rank], **kw)
            assert is_globally_sorted(comm, out)
            return out

        t0 = time.perf_counter()
        res = run_spmd(nprocs, fn, stats=stats, backend=bk, timeout=300)
        wall = time.perf_counter() - t0
        digest = int(np.bitwise_xor.reduce(np.concatenate(res) * 0x9E3779B97F4A7C15))
        return wall, stats.snapshot(), digest

    out: dict = {"n_keys": n_keys, "backends": {}}
    for bk in backends:
        w_flat, s_flat, d_flat = run(sample_sort, bk)
        w_kway, s_kway, d_kway = run(kway_sort, bk, k=2)
        out["backends"][bk] = {
            "sample_sort_wall_s": round(w_flat, 5),
            "kway_sort_wall_s": round(w_kway, 5),
            "kway_comm_splits": s_kway["comm_splits"],
            "digest_sample": d_flat,
            "digest_kway": d_kway,
        }
    if "serial" in backends:
        # Acceptance check: two consecutive serial runs are bit-identical.
        again = {
            "digest_sample": run(sample_sort, "serial")[2],
            "digest_kway": run(kway_sort, "serial", k=2)[2],
        }
        ser = out["backends"]["serial"]
        out["serial_deterministic"] = (
            again["digest_sample"] == ser["digest_sample"]
            and again["digest_kway"] == ser["digest_kway"]
        )
    return out


def bench_nbx(backends: list[str], quick: bool) -> dict:
    """NBX vs dense exchange timing/counters per backend."""
    nprocs = 8
    payload = 500 if quick else 4000
    rng = np.random.default_rng(1)
    outgoing = [
        {
            int(d): rng.standard_normal(payload)
            for d in rng.choice(nprocs, size=2, replace=False)
        }
        for _ in range(nprocs)
    ]

    def run(exchange, bk):
        stats = CommStats()

        def fn(comm):
            got = exchange(comm, outgoing[comm.rank])
            comm.barrier()
            return sorted(got)

        t0 = time.perf_counter()
        run_spmd(nprocs, fn, stats=stats, backend=bk, timeout=300)
        return time.perf_counter() - t0, stats.snapshot()

    out: dict = {"payload_doubles": payload, "backends": {}}
    for bk in backends:
        w_nbx, s_nbx = run(nbx_exchange, bk)
        w_dense, s_dense = run(dense_exchange, bk)
        out["backends"][bk] = {
            "nbx_wall_s": round(w_nbx, 5),
            "dense_wall_s": round(w_dense, 5),
            "nbx_collectives": s_nbx["collectives"],
            "dense_collectives": s_dense["collectives"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="CI-sized workloads")
    ap.add_argument("--output", default=DEFAULT_OUT)
    ap.add_argument(
        "--backends",
        default=",".join(usable_backends()),
        help="comma-separated subset of: " + ",".join(usable_backends()),
    )
    args = ap.parse_args(argv)
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]

    report = {
        "meta": {
            **host_provenance(),
            "quick": args.quick,
            "backends": backends,
            "note": (
                "every number is tagged with the SPMD backend that produced "
                "it; thread/process wall-clock comparisons are only "
                "meaningful when single_core_host is false"
            ),
        }
    }
    t0 = time.perf_counter()
    print(f"run_all: backends={backends} quick={args.quick}")
    report["matvec_strong"] = bench_matvec(backends, args.quick)
    print("  matvec done")
    report["ksort"] = bench_ksort(backends, args.quick)
    print("  ksort done")
    report["nbx"] = bench_nbx(backends, args.quick)
    print("  nbx done")
    report["assembly_plan"] = bench_assembly_plan.run(args.quick)
    bench_assembly_plan.write_report(report["assembly_plan"], args.quick)
    print("  assembly_plan done")
    report["obs_phases"] = bench_obs_phases.run(args.quick, backends)
    bench_obs_phases.write_report(report["obs_phases"], args.quick)
    print("  obs_phases done")
    report["spmd_check"] = bench_spmd_check.run(args.quick)
    bench_spmd_check.write_report(report["spmd_check"], args.quick)
    print("  spmd_check done")
    report["scenario_batch"] = bench_scenarios.run(args.quick)
    bench_scenarios.write_report(report["scenario_batch"], args.quick)
    print("  scenario_batch done")
    report["precond"] = bench_precond.run(args.quick)
    bench_precond.write_report(report["precond"], args.quick)
    print("  precond done")
    report["meta"]["total_wall_s"] = round(time.perf_counter() - t0, 2)

    os.makedirs(os.path.dirname(args.output), exist_ok=True)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {args.output} ({report['meta']['total_wall_s']}s)")

    if "thread_vs_process_speedup_8ranks" in report["matvec_strong"]:
        sp = report["matvec_strong"]["thread_vs_process_speedup_8ranks"]
        print(f"thread->process speedup @8 ranks: {sp}x on {os.cpu_count()} cores")
    if report["ksort"].get("serial_deterministic") is False:
        print("ERROR: serial backend non-deterministic", file=sys.stderr)
        return 1
    ap_sec = report["assembly_plan"]
    if not ap_sec["gate_passed"]:
        print(
            f"ERROR: assembly-plan speedup {ap_sec['gate_speedup']}x below "
            f"the {ap_sec['speedup_gate']}x gate on {ap_sec['gate_mesh']}",
            file=sys.stderr,
        )
        return 1
    print(
        f"assembly plan: {ap_sec['gate_speedup']}x vs per-call COO on "
        f"{ap_sec['gate_mesh']}"
    )
    ob_sec = report["obs_phases"]
    if not ob_sec["gate_passed"]:
        print(
            "ERROR: obs gates failed — span trees identical: "
            f"matvec={ob_sec['signature_identical_matvec']} "
            f"chns={ob_sec['signature_identical_chns']}, disabled overhead "
            f"{ob_sec['overhead']['overhead_frac']:.1%} "
            f"(gate {ob_sec['overhead']['gate']:.0%})",
            file=sys.stderr,
        )
        return 1
    print(
        "obs phases (mean ms): "
        + "  ".join(
            f"{k.removesuffix('_s')}={v * 1e3:.2f}"
            for k, v in ob_sec["phases"].items()
        )
    )
    sc_sec = report["spmd_check"]
    if not sc_sec["gate_passed"]:
        print(
            "ERROR: spmd-check hook overhead "
            f"{sc_sec['disabled_overhead_frac']:.1%} exceeds the "
            f"{sc_sec['gate']:.0%} gate with checks disabled",
            file=sys.stderr,
        )
        return 1
    print(
        f"spmd check hook: {sc_sec['disabled_overhead_frac']:+.1%} disabled, "
        f"{sc_sec['enabled_overhead_frac']:+.1%} enabled "
        f"({sc_sec['per_collective_enabled_us']}us/collective)"
    )
    sb_sec = report["scenario_batch"]
    if not sb_sec["gate_passed"]:
        print(
            "ERROR: scenario batch lost/failed jobs: "
            + json.dumps({c: r["statuses"] for c, r in sb_sec["runs"].items()}),
            file=sys.stderr,
        )
        return 1
    print(
        f"scenario batch: {sb_sec['n_jobs']} jobs, "
        f"{sb_sec['runs']['1']['jobs_per_min']} jobs/min @c1, "
        f"{sb_sec['runs']['4']['jobs_per_min']} @c4 "
        f"({sb_sec['speedup_c4_vs_c1']}x on {os.cpu_count()} cores)"
    )
    pc_sec = report["precond"]
    if not pc_sec["gate_passed"]:
        print(
            "ERROR: PCD did not reduce NS+PP Krylov iterations/step vs "
            f"Jacobi on {pc_sec['scenario']} "
            f"(jacobi={pc_sec['runs']['jacobi']['nspp_per_step']}, "
            f"pcd={pc_sec['runs']['pcd']['nspp_per_step']})",
            file=sys.stderr,
        )
        return 1
    print(
        f"precond: PCD {pc_sec['iteration_reduction']}x fewer NS+PP "
        f"iterations/step vs Jacobi on {pc_sec['scenario']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
