"""Quickstart: simulate a rising bubble with CHNS on an adaptive octree mesh.

Since PR 6 this is a thin wrapper over the declarative scenario registry
(:mod:`repro.scenarios`): the whole case — domain, physics, initial
condition, boundary conditions, time stepping — is one registered config,
and the same config runs from the CLI (``python -m repro.scenarios run
rising_bubble_2d``) or inside a concurrent batch.

Exits non-zero if the solve fails or diverges, so shell pipelines and CI
can trust the exit code.

Run:  python examples/quickstart.py
"""

import sys

import numpy as np

from repro.scenarios import build, run_scenario


def print_step(ts) -> None:
    d = ts.diagnostics()
    w = np.maximum(-ts.phi, 0.0)
    y_com = float((ts.mesh.dof_xy()[:, 1] * w).sum() / w.sum())
    print(
        f"{ts.step_count:>4} {d.mass:>10.6f} {d.energy:>10.6f} "
        f"{np.abs(ts.vel).max():>8.4f} "
        f"[{d.phi_min:>7.3f}, {d.phi_max:>6.3f}] {y_com:>9.4f}"
    )


def main() -> int:
    config = build("rising_bubble_2d")  # the full (non-quick) variant
    print(f"scenario: {config.name}  solver={config.solver}  "
          f"levels {config.domain.min_level}..{config.domain.max_level}  "
          f"{config.time.n_steps} steps of dt={config.time.dt:g}")
    print(f"\n{'step':>4} {'mass':>10} {'energy':>10} {'|v|max':>8} "
          f"{'phi range':>18} {'bubble y':>9}")

    result = run_scenario(config, on_step=print_step)
    if result.status != "succeeded":
        print(f"FAILED ({result.status}): {result.error}", file=sys.stderr)
        return 1

    t = result.wall_s
    print(f"\n{result.steps_done} steps in {t:.2f}s "
          f"({result.counts['newton']} Newton / "
          f"{result.counts['krylov']} Krylov iterations, "
          f"{result.n_elems_final} elements)")
    print("done: buoyant bubble drifts upward while mass stays conserved.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
