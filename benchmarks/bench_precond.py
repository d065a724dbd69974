"""PCD vs Jacobi: NS Krylov iterations per step on a registry scenario.

Runs the same quick ``rising_bubble_2d`` job twice — once with the
historical Jacobi NS inner preconditioner and once with the GMG-backed PCD
block preconditioner (``precond="pcd"``) — at identical solver tolerances,
and compares the per-step NS and PP Krylov iteration counts recorded by the
time stepper's ``iteration_counts`` plumbing.  ``precond`` reaches the NS
solve only: PP picks Jacobi or GMG from the mesh size by itself
(``repro.chns.pp_solver.GMG_MIN_DOFS_PER_AXIS``; this mesh is below it), so
the PP column is the same in both runs and the NS iterations carry the
difference.

Gate: PCD must reduce the NS iterations per step, counted (as before) in
the *combined* NS+PP iterations per step.  Wall time (the whole job, mesh
and solver setup included) is reported but not gated (on CI-sized meshes
the V-cycle setup can eat the iteration savings; the paper-scale argument
is about iteration growth with mesh size, which the iteration counts
capture).

Artifacts: ``benchmarks/results/BENCH_PR8.json`` (standalone) and the
``precond`` section of the run_all report; text table in
``benchmarks/results/precond.txt``.

Run:  PYTHONPATH=src python benchmarks/bench_precond.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.scenarios import build, run_scenario  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
DEFAULT_OUT = os.path.join(RESULTS_DIR, "BENCH_PR8.json")


def _run_variant(cfg, precond: str, n_steps: int) -> dict:
    last = {}
    res = run_scenario(
        replace(cfg, precond=precond, time=replace(cfg.time, n_steps=n_steps)),
        on_step=lambda s: last.update(counts=s.stepper.iteration_counts),
    )
    if res.status != "succeeded":
        raise RuntimeError(f"{cfg.name} with precond={precond}: {res.error}")
    counts = last["counts"]
    return {
        "precond": precond,
        "n_steps": n_steps,
        "wall_s": res.wall_s,
        "krylov_ns": counts["krylov_ns"],
        "krylov_pp": counts["krylov_pp"],
        "krylov_vu": counts["krylov_vu"],
        "ns_per_step": round(counts["krylov_ns"] / n_steps, 2),
        "pp_per_step": round(counts["krylov_pp"] / n_steps, 2),
        "nspp_per_step": round(
            (counts["krylov_ns"] + counts["krylov_pp"]) / n_steps, 2
        ),
    }


def run(quick: bool) -> dict:
    cfg = build("rising_bubble_2d", quick=True)
    n_steps = 2 if quick else 6
    out: dict = {
        "scenario": cfg.name,
        "n_elems_level": cfg.domain.max_level,
        "dt": cfg.time.dt,
        "runs": {},
    }
    for precond in ("jacobi", "pcd"):
        out["runs"][precond] = _run_variant(cfg, precond, n_steps)
    j, p = out["runs"]["jacobi"], out["runs"]["pcd"]
    out["iteration_reduction"] = round(
        j["nspp_per_step"] / max(p["nspp_per_step"], 1e-12), 3
    )
    out["gate_passed"] = p["nspp_per_step"] < j["nspp_per_step"]
    return out


def write_report(section: dict, quick: bool) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    payload = {
        "meta": {
            "bench": "precond",
            "quick": quick,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "precond": section,
    }
    with open(DEFAULT_OUT, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    j, p = section["runs"]["jacobi"], section["runs"]["pcd"]
    lines = [
        "PCD vs Jacobi on the NS solve — NS+PP Krylov iterations/step "
        f"({section['scenario']})",
        f"{'precond':<10}{'ns/step':>10}{'pp/step':>10}"
        f"{'ns+pp':>10}{'wall_s':>10}",
        f"{'jacobi':<10}{j['ns_per_step']:>10}{j['pp_per_step']:>10}"
        f"{j['nspp_per_step']:>10}{j['wall_s']:>10}",
        f"{'pcd':<10}{p['ns_per_step']:>10}{p['pp_per_step']:>10}"
        f"{p['nspp_per_step']:>10}{p['wall_s']:>10}",
        f"reduction: {section['iteration_reduction']}x  "
        f"gate_passed: {section['gate_passed']}",
    ]
    with open(os.path.join(RESULTS_DIR, "precond.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    section = run(args.quick)
    write_report(section, args.quick)
    if not section["gate_passed"]:
        print(
            "ERROR: PCD did not reduce NS Krylov iterations/step (counted "
            "in NS+PP) vs Jacobi",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
