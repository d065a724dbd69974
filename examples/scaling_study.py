"""Scaling study driver: simulator measurements + paper-scale model curves.

Runs the distributed MATVEC on simulated ranks (real SPMD kernels with
metered communication), fits the ghost-surface coefficient, and prints the
machine-model reproduction of the paper's Fig. 4a/4b curves plus the Fig. 5
application breakdown.  This is the command-line version of the benchmark
suite's scaling experiments.

Run:  python examples/scaling_study.py [--backend thread|process|serial]

The backend flag picks the SPMD execution backend (see ``repro.runtime``):
threads (default, zero-copy), forked processes (true multi-core, every
message pickled through a queue), or the deterministic serial scheduler.
Measured counters are identical on every backend; wall-clock differs.

Each MATVEC pass is timed between barriers; ``ms/pass`` is the median over
passes of the slowest rank's time and ``spread`` the max - min of that time
over the passes.  One untimed warm-up pass runs before them, and the
``msgs`` / ``bytes`` columns leave its traffic out.
"""

import argparse
import sys
import time

import numpy as np

from repro.fem.operators import stiffness_matrix
from repro.mesh.distributed import DistributedField
from repro.mesh.mesh import mesh_from_field
from repro.mpi.comm import run_spmd
from repro.mpi.stats import CommStats
from repro.perf.machine import MachineModel, parallel_efficiency, weak_efficiency
from repro.perf.model import ApplicationModel, paper_fig5_solvers


def measure_matvec(mesh, nprocs, n_iters=3, backend=None):
    Ke = stiffness_matrix(mesh.elem_h(), mesh.dim)
    u = np.ones(mesh.n_nodes)
    stats = CommStats()

    def fn(comm):
        df = DistributedField(comm, mesh)
        owned = df.from_global(u)
        # One untimed warm-up pass takes the first pass's one-time costs.
        # Its traffic is left out of the counters: each snapshot sits
        # between barriers, so no other rank sends while it is taken.
        comm.barrier()
        before = comm.stats.snapshot()
        comm.barrier()
        owned = df.matvec(Ke[df.elem_lo : df.elem_hi], owned)
        comm.barrier()
        warmup = {k: v - before[k] for k, v in comm.stats.snapshot().items()}
        passes = []
        comm.barrier()
        for _ in range(n_iters):
            t0 = time.perf_counter()
            owned = df.matvec(Ke[df.elem_lo : df.elem_hi], owned)
            comm.barrier()
            passes.append(time.perf_counter() - t0)
        # A diverged/NaN kernel must fail the run, not print a time: the
        # rank exception surfaces as SpmdError and the script exits 1.
        if not np.all(np.isfinite(owned)):
            raise RuntimeError(f"non-finite MATVEC result on rank {comm.rank}")
        return passes, warmup

    ranks = run_spmd(nprocs, fn, stats=stats, backend=backend)
    slowest = np.max([passes for passes, _ in ranks], axis=0)
    warmup = ranks[0][1]
    counts = {k: v - warmup[k] for k, v in stats.snapshot().items()}
    return float(np.median(slowest)), float(np.ptp(slowest)), counts


def main() -> int:
    from repro.runtime import available_backends

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--backend",
        default="thread",
        choices=available_backends(),
        help="SPMD execution backend (default: thread)",
    )
    args = ap.parse_args()
    backend = args.backend

    def phi(x):
        return np.linalg.norm(x - 0.5, axis=1) - 0.3

    mesh = mesh_from_field(phi, 2, max_level=7, min_level=4, threshold=0.03)
    print(f"simulator mesh: {mesh.n_elems} elements")
    print(f"SPMD backend: {backend}\n")
    print("-- simulator: distributed MATVEC (real kernels, metered) --")
    print(f"{'ranks':>5} {'ms/pass':>9} {'spread':>8} {'msgs':>6} {'bytes':>9}")
    for p in (1, 2, 4, 8):
        t, spread, snap = measure_matvec(mesh, p, backend=backend)
        print(f"{p:>5} {t*1e3:>9.2f} {spread*1e3:>8.2f} "
              f"{snap['messages']:>6} {snap['bytes_sent']:>9}")

    model = MachineModel()
    print("\n-- model: Fig. 4a strong scaling (13M elements) --")
    procs = [224, 448, 896, 1792, 3584, 7168, 14336, 28672]
    times = np.array([model.matvec_time(13e6, p) for p in procs])
    eff = parallel_efficiency(times, np.array(procs))
    for p, t, e in zip(procs, times, eff):
        print(f"{p:>6} procs: {t:8.4f} s  (eff {e:.0%})")
    print("paper anchors: 2.87 s @ 224, 0.027 s @ 28672, 81% efficiency")

    print("\n-- model: Fig. 4b weak scaling (35K elements/core) --")
    wprocs = [28, 112, 448, 1792, 7168, 14336]
    wt = np.array([model.matvec_time(35_000 * p, p) for p in wprocs])
    for p, t, e in zip(wprocs, wt, weak_efficiency(wt)):
        print(f"{p:>6} procs: {t:8.3f} s  (weak eff {e:.0%})")
    print("paper anchors: 1.58 s @ 28 -> 1.9 s @ 14336 (82%)")

    print("\n-- model: Fig. 5 application breakdown (700M elements) --")
    app = ApplicationModel(machine=model, n_elems=700e6, dim=3,
                           solvers=paper_fig5_solvers())
    fprocs = [14336, 28672, 57344, 114688]
    b = app.breakdown(fprocs)
    header = "block  " + "".join(f"{p:>10}" for p in fprocs)
    print(header)
    for name in ("ch", "ns", "pp", "vu", "remesh"):
        print(f"{name:<6} " + "".join(f"{x:>10.2f}" for x in b[name]))
    print("\nspeedups for 8x procs (paper: NS 6.6, PP 5.3, VU 5.5, CH 4.0):")
    for name in ("ns", "pp", "vu", "ch"):
        print(f"  {name.upper()}: {app.speedup(name, fprocs[0], fprocs[-1]):.2f}x")

    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(wt))):
        print("ERROR: non-finite model timings", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
