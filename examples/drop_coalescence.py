"""Two-drop coalescence under Cahn-Hilliard dynamics with AMR.

Two nearby drops merge: the diffuse interfaces overlap, the neck forms and
the combined drop relaxes toward a circle while Cahn-Hilliard energy decays
monotonically and total phase mass is conserved — the two discrete
invariants the solver guarantees.  The mesh follows the interface through
the topology change via the remeshing driver.

The case itself is the registered ``coalescence_2d`` scenario
(:mod:`repro.scenarios`); this script only adds the per-step narration.
Exits non-zero on solver failure.

Run:  python examples/drop_coalescence.py
"""

import sys

import numpy as np

from repro.chns.free_energy import ginzburg_landau_energy, total_mass
from repro.scenarios import build, run_scenario

_m0 = None


def print_step(ts) -> None:
    global _m0
    mesh, phi = ts.mesh, ts.phi
    mass = total_mass(mesh, phi)
    if _m0 is None:
        _m0 = mass
    neck = float(mesh.evaluate_at(phi, np.array([[0.52, 0.5]]))[0])
    print(f"{ts.step_count:>4} {mesh.n_elems:>6} {mass - _m0:>11.2e} "
          f"{ginzburg_landau_energy(mesh, phi, 0.04):>9.5f} {neck:>19.3f}")


def main() -> int:
    config = build("coalescence_2d")
    print(f"scenario: {config.name}  Pe={config.physics['Pe']:g} "
          f"Cn={config.physics['Cn']:g}  remesh every "
          f"{config.refinement.remesh_every} steps")
    print(f"{'step':>4} {'elems':>6} {'mass drift':>11} {'energy':>9} "
          f"{'neck phi(0.52,0.5)':>19}")

    result = run_scenario(config, on_step=print_step)
    if result.status != "succeeded":
        print(f"FAILED ({result.status}): {result.error}", file=sys.stderr)
        return 1

    print("\nneck phi dropping toward -1 = the drops have merged; "
          "energy decays; mass drift stays at solver/transfer tolerance.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
