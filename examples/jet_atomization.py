"""Primary jet atomization (paper Sec. IV), scaled to laptop size.

A perturbed liquid column enters from the left wall; the CHNS stepper
advances the flow while the local-Cahn identifier drives AMR every few
steps — the interface is kept at the interface level and detected
filaments/droplets at the (deeper) feature level.  Prints the evolving
level histogram and the paper's "equivalent uniform grid points" metric.

The case is the registered ``jet_2d`` scenario (:mod:`repro.scenarios`);
``--vtk`` switches on the scenario's VTK time series (written into
``jet_output/vtk/``).  Exits non-zero on solver failure.

Run:  python examples/jet_atomization.py [--vtk]
"""

import sys

import numpy as np

from repro.amr.driver import level_fractions, uniform_equivalent_points
from repro.scenarios import build, run_scenario


def print_step(state) -> None:
    d = state.stepper.diagnostics()
    fr = level_fractions(state.mesh)
    hist = " ".join(
        f"L{l}:{f:.0%}"
        for l, f in zip(fr["levels"], fr["element_fraction"])
        if f > 0
    )
    print(f"step {state.step - 1}: {d.n_elems:5d} elems | phi in "
          f"[{d.phi_min:+.2f}, {d.phi_max:+.2f}] | "
          f"|v|max {np.abs(state.vel).max():.2f} | {hist}")


def main() -> int:
    write_vtk = "--vtk" in sys.argv
    config = build("jet_2d")
    config.outputs.vtk = write_vtk
    config.outputs.obs = True  # per-block times ride home in the job record

    last = {}

    def on_step(state):
        print_step(state)
        last["mesh"] = state.mesh

    result = run_scenario(
        config, on_step=on_step, workdir="jet_output" if write_vtk else None
    )
    if result.status != "succeeded":
        print(f"FAILED ({result.status}): {result.error}", file=sys.stderr)
        return 1

    mesh = last["mesh"]
    equiv = uniform_equivalent_points(mesh)
    print(f"\nfinal: levels {mesh.tree.levels.min()}.."
          f"{mesh.tree.levels.max()}, {mesh.n_dofs} DOFs vs {equiv:.3g} "
          f"equivalent uniform points ({equiv / mesh.n_dofs:.0f}x "
          "compression).")
    print("(The paper's production run: 3D, level 15, 35 trillion equivalent "
          "points, 64x beyond prior state of the art.)")
    spans = {s["path"]: s["inclusive_mean_s"]
             for s in result.obs_summary["spans"]}
    print("block times: " + " ".join(
        f"{b} {spans.get(f'chns.step/chns.{b}', 0.0):.2f}s"
        for b in ("ch", "ns", "pp", "vu", "remesh")))
    if write_vtk:
        print("VTK snapshots written to jet_output/vtk/ (open in ParaView)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
