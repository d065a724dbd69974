"""JIT-compiled fused element kernels vs the NumPy GEMM path (PR 9).

Two measurements feed ``BENCH_PR9.json``, both on hosts where Numba is
installed; elsewhere only the NumPy column exists and the ratio is
reported ``"unmeasured"``:

* ``fused_update``: one full operator numeric update (elemental batch +
  plan CSR scatter) through :mod:`repro.fem.kernels` with the JIT path on,
  against the identical call under ``kernels.fallback_only()`` (the
  :mod:`repro.fem.operators` reference-tensor GEMM + bincount path).
* ``matvec``: :meth:`repro.fem.matvec.MatrixFreeOperator.matvec` (fused
  gather/GEMV/scatter kernel) vs the same call under ``fallback_only``.

``jit_vs_numpy`` (NumPy ms / JIT ms on the 64x64 mesh) is a measurement,
not a gate: it is the kernel-survival number ROADMAP item 3 asks for, now
taken against a baseline that is itself BLAS.  Every report embeds
:func:`repro.fem.kernels.provenance` (Numba presence and version, selection
counters) so a number can never silently come from the wrong path.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_kernels.py --quick

or as part of ``benchmarks/run_all.py --quick``, which embeds the same
numbers in its report and writes this file's ``BENCH_PR9.json`` too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.fem import kernels
from repro.fem.matvec import MatrixFreeOperator
from repro.fem.operators import mass_matrix, stiffness_matrix
from repro.fem.plan import get_plan
from repro.mesh.mesh import Mesh, mesh_from_field
from repro.octree.build import uniform_tree

DEFAULT_OUT = os.path.join(
    os.path.dirname(__file__), "results", "BENCH_PR9.json"
)
REFERENCE_MESH = "uniform_64x64"
UNMEASURED = "unmeasured"


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _meshes(quick: bool) -> dict:
    def interface(x):
        return np.linalg.norm(x - 0.5, axis=1) - 0.3

    meshes = {"uniform_64x64": Mesh.from_tree(uniform_tree(2, 6))}
    if not quick:
        meshes["adaptive_2d"] = mesh_from_field(
            interface, 2, max_level=8, min_level=5, threshold=0.03
        )
        meshes["adaptive_3d"] = mesh_from_field(
            interface, 3, max_level=4, min_level=2, threshold=0.1
        )
    return meshes


def _jit_live() -> bool:
    return kernels.HAVE_NUMBA and kernels.jit_enabled()


def _compare(call) -> dict:
    """Time ``call`` on the NumPy path and, where the JIT path is live, on
    it too; without Numba there is nothing to compare with."""

    def numpy_call():
        with kernels.fallback_only():
            return call()

    repeats = 30
    numpy_call()  # warm
    row = {
        "numpy_ms": round(_best_of(numpy_call, repeats) * 1e3, 4),
        "jit_ms": None,
        "jit_vs_numpy": UNMEASURED,
        "max_abs_diff_jit_vs_numpy": None,
    }
    if _jit_live():  # pragma: no cover - needs numba
        call()  # warm (compiles)
        row["jit_ms"] = round(_best_of(call, repeats) * 1e3, 4)
        row["jit_vs_numpy"] = round(row["numpy_ms"] / row["jit_ms"], 2)
        row["max_abs_diff_jit_vs_numpy"] = float(
            np.abs(call() - numpy_call()).max()
        )
    return row


def bench_fused_update(quick: bool) -> dict:
    """Full convection numeric update (corner-fused Ke + CSR scatter):
    JIT kernels vs the reference-tensor GEMM + bincount path."""
    out: dict = {}
    for name, mesh in _meshes(quick).items():
        plan = get_plan(mesh)
        rng = np.random.default_rng(0)
        vel = rng.standard_normal((mesh.n_dofs, mesh.dim))
        vel_c = mesh.elem_gather(vel)
        h = mesh.elem_h()

        def update():
            return plan.assemble(
                kernels.convection_ke_corners(h, mesh.dim, vel_c)
            )

        out[name] = {
            "n_elems": int(mesh.n_elems),
            "n_dofs": int(mesh.n_dofs),
            "hanging_nodes": int(mesh.nodes.is_hanging.sum()),
            **_compare(update),
        }
    return out


def bench_matvec(quick: bool) -> dict:
    """Matrix-free MATVEC: fused JIT gather/GEMV/scatter vs einsum+add.at."""
    out: dict = {}
    for name, mesh in _meshes(quick).items():
        rng = np.random.default_rng(1)
        Ke = stiffness_matrix(mesh.elem_h(), mesh.dim) + mass_matrix(
            mesh.elem_h(), mesh.dim
        )
        op = MatrixFreeOperator(mesh, Ke)
        u = rng.standard_normal(mesh.n_dofs)
        out[name] = {
            "n_elems": int(mesh.n_elems),
            "n_dofs": int(mesh.n_dofs),
            **_compare(lambda: op.matvec(u)),
        }
    return out


def run(quick: bool) -> dict:
    """All sections (used by run_all.py).  ``jit_vs_numpy`` is the ratio on
    the reference mesh per section, ``"unmeasured"`` where the JIT path is
    not live (no Numba, or REPRO_JIT=0)."""
    kernels.reset_stats()
    out = {
        "fused_update": bench_fused_update(quick),
        "matvec": bench_matvec(quick),
        "reference_mesh": REFERENCE_MESH,
        "provenance": kernels.provenance(),
        "jit_available": _jit_live(),
    }
    out["jit_vs_numpy"] = {
        kind: out[kind][REFERENCE_MESH]["jit_vs_numpy"]
        for kind in ("fused_update", "matvec")
    }
    return out


def summary(section: dict) -> str:
    """One line for console output and the text report."""
    ratio = section["jit_vs_numpy"]
    if not section["jit_available"]:
        return (
            f"jit_vs_numpy on {section['reference_mesh']}: {UNMEASURED} "
            "(Numba unavailable or REPRO_JIT=0; NumPy column only)"
        )
    return (
        f"jit_vs_numpy on {section['reference_mesh']}: fused update "
        f"{ratio['fused_update']}x, matvec {ratio['matvec']}x (measured)"
    )


def write_report(section: dict, quick: bool, output: str = DEFAULT_OUT) -> None:
    """Wrap a ``run()`` section in the PR 1 provenance headers and write it."""
    from _report import host_provenance

    report = {
        "meta": {
            **host_provenance(),
            "quick": quick,
            "note": (
                "JIT fused element kernels vs the NumPy reference-tensor "
                "GEMM path; single-process timings.  jit_available records "
                "whether the JIT path was live — without it only the NumPy "
                "column is timed and jit_vs_numpy is 'unmeasured'."
            ),
        },
        "kernels": section,
    }
    os.makedirs(os.path.dirname(output), exist_ok=True)
    with open(output, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {output}")

    from _report import format_table, report as text_report

    prov = section["provenance"]

    def cells(row):
        ratio = row["jit_vs_numpy"]
        return (
            row["numpy_ms"],
            "-" if row["jit_ms"] is None else row["jit_ms"],
            ratio if ratio == UNMEASURED else f"{ratio}x",
        )

    rows = [
        ("update:" + name, row["n_elems"], row["hanging_nodes"], *cells(row))
        for name, row in section["fused_update"].items()
    ] + [
        ("matvec:" + name, row["n_elems"], "-", *cells(row))
        for name, row in section["matvec"].items()
    ]
    body = format_table(
        ["path", "elems", "hanging", "numpy ms", "jit ms", "jit_vs_numpy"],
        rows,
    ) + (
        f"\n\nnumba: {'yes ' + str(prov['numba_version']) if prov['have_numba'] else 'not installed'}"
        f" | jit_enabled: {prov['jit_enabled']}"
        f" | selections: jit_hits={prov['stats']['jit_hits']}"
        f" fallback={prov['stats']['fallback']}\n"
        + summary(section)
    )
    text_report(
        "kernels",
        "JIT-compiled fused element kernels (PR 9)",
        body,
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="CI-sized workloads")
    ap.add_argument("--output", default=DEFAULT_OUT)
    args = ap.parse_args(argv)

    section = run(args.quick)
    write_report(section, args.quick, args.output)
    print(summary(section))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
