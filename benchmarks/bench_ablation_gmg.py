"""Ablation A2 — GMG vs Jacobi-CG for the variable-density pressure Poisson.

The paper identifies the variable-coefficient PP-solve as the dominant cost
and defers GMG to future work after finding AMG setup too expensive at scale
(Sec. III, footnote 5).  This ablation quantifies the opportunity on the
exact system ``PPSolver`` solves — the pure-Neumann ``K_{1/rho}`` with a
100:1 density contrast across a drop interface, mean-zero right-hand side
from a weak divergence, tolerance 1e-9 — comparing Jacobi-preconditioned CG
(the paper's production choice) with CG preconditioned by one GMG V-cycle,
in iterations and in milliseconds, on uniform and interface-refined meshes
in 2D and 3D.

The table is where ``repro.chns.pp_solver.GMG_MIN_DOFS_PER_AXIS`` comes
from: Jacobi-CG iterations grow like ``n_dofs ** (1/dim)``, V-cycle-CG
iterations do not, so the mesh size per axis at which "build + solve" beats
Jacobi-CG is the crossover.  Regenerate with

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_gmg.py -q
"""

import time

import numpy as np
import pytest

from repro.chns import forms
from repro.chns.pp_solver import GMG_MIN_DOFS_PER_AXIS
from repro.la.krylov import cg
from repro.la.precond import JacobiPreconditioner, make_preconditioner
from repro.mesh.mesh import Mesh, mesh_from_field
from repro.octree.build import uniform_tree

from _report import format_table, report

TOL = 1e-9


def uniform(dim, level):
    return Mesh.from_tree(uniform_tree(dim, level))


def adaptive(dim, min_level, max_level, band):
    """Refined to ``max_level`` within ``band`` of the drop interface."""
    return mesh_from_field(
        lambda x: (np.linalg.norm(x - 0.5, axis=-1) - 0.25) / band,
        dim, max_level=max_level, min_level=min_level,
    )


def wall_graded(dim, min_level, max_level, band):
    """Refined to ``max_level`` within ``band`` of the walls (the mesh of
    the ``cavity2d`` benchmark workload)."""
    return mesh_from_field(
        lambda x: np.minimum(x, 1.0 - x).min(axis=-1) / band,
        dim, max_level=max_level, min_level=min_level,
    )


#: (label, mesh factory): the rows of the crossover table
MESHES = [
    ("2D uniform L5", lambda: uniform(2, 5)),
    ("2D uniform L6", lambda: uniform(2, 6)),
    ("2D uniform L7", lambda: uniform(2, 7)),
    ("2D adaptive 4-7", lambda: adaptive(2, 4, 7, 0.05)),
    ("2D wall-graded 5-7", lambda: wall_graded(2, 5, 7, 0.1)),
    ("3D uniform L3", lambda: uniform(3, 3)),
    ("3D uniform L4", lambda: uniform(3, 4)),
    ("3D adaptive 3-5", lambda: adaptive(3, 3, 5, 0.06)),
]


def pp_system(mesh, contrast=100.0):
    """What ``PPSolver.solve`` assembles: ``K_{1/rho}`` (singular, constant
    nullspace) and the mean-zero load of a velocity with divergence
    ``2x + 1``."""
    xq = forms.quad_xy(mesh)
    rho = np.where(np.linalg.norm(xq - 0.5, axis=-1) < 0.25, contrast, 1.0)
    K = forms.stiffness(mesh, 1.0 / rho)
    xy = mesh.dof_xy()
    vel = xy.copy()
    vel[:, 0] = xy[:, 0] ** 2
    b = forms.flux_divergence_load(mesh, forms.field_at_quad(mesh, vel))
    return K, b - b.mean()


def jacobi_cg(K, b):
    return cg(K, b, M=JacobiPreconditioner(K.diagonal() + 1e-12), tol=TOL,
              maxiter=8000)


def gmg_build(mesh, K):
    return make_preconditioner("pcd", K, mesh=mesh, remove_mean=True)


def best_ms(fn, repeats=3):
    """``(best wall time in ms, last result)`` of ``repeats`` calls."""
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best, out


@pytest.fixture(scope="module")
def system():
    mesh = uniform(2, 6)
    return (mesh,) + pp_system(mesh)


def test_jacobi_cg_kernel(system, benchmark):
    _, K, b = system
    benchmark.pedantic(lambda: jacobi_cg(K, b), rounds=3)


def test_gmg_cg_kernel(system, benchmark):
    mesh, K, b = system
    gmg = gmg_build(mesh, K)
    benchmark.pedantic(lambda: cg(K, b, M=gmg, tol=TOL, maxiter=200), rounds=3)


def test_ablation_gmg_report(benchmark):
    rows = []
    for label, make in MESHES:
        mesh = make()
        K, b = pp_system(mesh)
        t_jac, plain = best_ms(lambda: jacobi_cg(K, b))
        gmg_build(mesh, K)  # the hierarchy is per generation: build it once
        t_build, gmg = best_ms(lambda: gmg_build(mesh, K))
        t_solve, pre = best_ms(lambda: cg(K, b, M=gmg, tol=TOL, maxiter=400))
        assert plain.converged and pre.converged
        x_j, x_g = plain.x - plain.x.mean(), pre.x - pre.x.mean()
        assert np.linalg.norm(x_g - x_j) <= 1e-6 * np.linalg.norm(x_j)
        per_axis = mesh.n_dofs ** (1.0 / mesh.dim)
        rows.append([
            label, mesh.n_dofs, round(per_axis, 1),
            plain.iterations, round(t_jac, 1),
            round(t_build, 1), pre.iterations, round(t_solve, 1),
            round(t_jac / (t_build + t_solve), 2),
            "gmg" if per_axis >= GMG_MIN_DOFS_PER_AXIS else "jacobi",
        ])
    benchmark.pedantic(lambda: pp_system(uniform(2, 4)), rounds=1)
    table = format_table(
        ["mesh", "DOFs", "DOFs^(1/dim)", "Jacobi-CG its", "Jacobi-CG ms",
         "GMG build ms", "GMG-CG its", "GMG-CG ms",
         "Jacobi / (build + solve)", "PPSolver picks"],
        rows,
    )
    report(
        "ablation_gmg",
        "GMG vs Jacobi-CG on the variable-density pressure Poisson "
        "(100:1 contrast, pure Neumann, tol 1e-9)",
        table
        + "\n\nTimes are the best of 3; 'GMG build' is the per-step cost "
        "(Galerkin chain + coarse LU on the cached per-generation "
        "prolongations).  Jacobi-CG iterations grow like DOFs^(1/dim); "
        "GMG-CG stays nearly mesh-independent — the speedup the paper "
        "anticipates for its dominant PP-solve (it used Jacobi-type "
        "iterative solvers in production after rejecting AMG setup costs).  "
        "GMG wins in milliseconds where the last-but-one column exceeds 1; "
        f"PPSolver switches at DOFs^(1/dim) >= {GMG_MIN_DOFS_PER_AXIS:g} "
        "(repro.chns.pp_solver.GMG_MIN_DOFS_PER_AXIS).",
    )
    # Mesh-independence of GMG vs growth of Jacobi-CG (2D uniform ladder).
    ladder = [r for r in rows if r[0].startswith("2D uniform")]
    gmg_iters = [r[6] for r in ladder]
    jac_iters = [r[3] for r in ladder]
    assert max(r[6] for r in rows) <= 15
    assert max(gmg_iters) - min(gmg_iters) <= 4
    assert jac_iters[-1] > 1.5 * jac_iters[0]
    assert jac_iters[-1] / gmg_iters[-1] >= 5.0
