"""E3 / Fig. 4a — MATVEC strong scaling.

Two layers, per the documented substitution:

1. *Simulator measurements*: the real distributed MATVEC (GhostRead ->
   elemental pass -> GhostWrite over NBX) runs on a fixed adaptive mesh at
   1..8 simulated ranks; wall time and exact ghost-traffic counters are
   recorded, and the surface-to-volume ghost coefficient is fitted from the
   counters.
2. *Machine-model extrapolation*: the calibrated alpha-beta-gamma model
   (anchored to the paper's 224-process and 28,672-process points) produces
   the full Fig. 4a curve — 13M elements, 224 -> 28,672 processes, checking
   the paper's 2.87 s -> 0.027 s and 81% parallel efficiency.
"""

import time

import numpy as np
import pytest

from repro.fem.operators import stiffness_matrix
from repro.mesh.distributed import DistributedField
from repro.mesh.mesh import mesh_from_field
from repro.mpi.comm import run_spmd
from repro.mpi.stats import CommStats
from repro.perf.machine import MachineModel, parallel_efficiency
from repro.perf.model import fit_ghost_coeff

from _report import format_table, report

PAPER_PROCS = [224, 448, 896, 1792, 3584, 7168, 14336, 28672]
PAPER_T0, PAPER_T1 = 2.87, 0.027
PAPER_EFF = 0.81


def adaptive_mesh():
    def phi(x):
        return np.linalg.norm(x - 0.5, axis=1) - 0.3

    return mesh_from_field(phi, 2, max_level=7, min_level=4, threshold=0.03)


@pytest.fixture(scope="module")
def mesh():
    return adaptive_mesh()


def _distributed_matvec_run(mesh, nprocs, n_iters=3, backend=None):
    Ke = stiffness_matrix(mesh.elem_h(), mesh.dim)
    u = np.ones(mesh.n_nodes)
    stats = CommStats()

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

    t_wall = time.perf_counter()
    times = run_spmd(nprocs, fn, stats=stats, backend=backend)
    t_wall = time.perf_counter() - t_wall
    return max(times), stats.snapshot(), t_wall


def test_simulated_matvec_rank4(mesh, benchmark):
    """Timed kernel: one distributed MATVEC pass at 4 simulated ranks."""

    def once():
        return _distributed_matvec_run(mesh, 4, n_iters=1)

    benchmark.pedantic(once, rounds=3, iterations=1)


def test_fig4a_strong_scaling(mesh, benchmark):
    # --- simulator measurements -------------------------------------------
    benchmark.pedantic(_distributed_matvec_run, args=(mesh, 2, 1), rounds=1)
    sim_rows = []
    ghost_bytes = []
    grains = []
    for p in (1, 2, 4, 8):
        t, snap, _ = _distributed_matvec_run(mesh, p)
        sim_rows.append([p, mesh.n_elems // p, t * 1e3, snap["bytes_sent"]])
        if p > 1:
            ghost_bytes.append(snap["bytes_sent"] / p / 3)  # per rank per iter
            grains.append(mesh.n_elems / p)
    coeff = fit_ghost_coeff(np.array(grains), np.array(ghost_bytes), mesh.dim)

    sim_table = format_table(
        ["ranks", "elems/rank", "ms/MATVEC", "total bytes"], sim_rows
    )

    # --- model extrapolation to the paper's scale --------------------------
    model = MachineModel()
    times = np.array(
        [model.matvec_time(13e6, p, dim=3, ghost_coeff=max(coeff, 1.0))
         for p in PAPER_PROCS]
    )
    eff = parallel_efficiency(times, np.array(PAPER_PROCS))
    rows = [
        [p, round(t, 4), round(e, 3)]
        for p, t, e in zip(PAPER_PROCS, times, eff)
    ]
    model_table = format_table(["procs", "model time (s)", "efficiency"], rows)

    summary = format_table(
        ["quantity", "paper", "reproduced"],
        [
            ["time @ 224 procs (s)", PAPER_T0, round(float(times[0]), 3)],
            ["time @ 28,672 procs (s)", PAPER_T1, round(float(times[-1]), 4)],
            ["efficiency @ 128x procs", PAPER_EFF, round(float(eff[-1]), 3)],
            ["fitted ghost surface coeff", "-", round(coeff, 2)],
        ],
    )
    report(
        "fig4a",
        "MATVEC strong scaling (13M elements, 224 -> 28,672 processes)",
        "Simulator (real SPMD kernels, counters measured):\n"
        + sim_table
        + "\n\nMachine-model extrapolation at paper scale:\n"
        + model_table
        + "\n\nAnchors:\n"
        + summary,
    )
    assert abs(float(times[0]) - PAPER_T0) / PAPER_T0 < 0.05
    assert abs(float(times[-1]) - PAPER_T1) / PAPER_T1 < 0.10
    assert abs(float(eff[-1]) - PAPER_EFF) < 0.05
    # Strong scaling monotone decreasing.
    assert np.all(np.diff(times) < 0)

