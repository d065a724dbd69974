"""The pressure-Poisson solve picks its preconditioner from the mesh size.

Past ``GMG_MIN_DOFS_PER_AXIS`` one GMG V-cycle on ``K_{1/rho}`` preconditions
the CG; below it Jacobi does.  The rule reads nothing but the mesh, so it
cannot differ between a restarted run and the uninterrupted one.
"""

import numpy as np
import pytest

from repro.chns import forms, pp_solver
from repro.chns.initial_conditions import drop
from repro.chns.params import CHNSParams
from repro.chns.pp_solver import GMG_MIN_DOFS_PER_AXIS, PPSolver
from repro.chns.timestepper import CHNSTimeStepper, no_slip_bc
from repro.la import gmg
from repro.la.krylov import cg
from repro.la.precond import JacobiPreconditioner
from repro.mesh.mesh import Mesh, mesh_from_field
from repro.octree.build import uniform_tree

CN = 0.03


def phi0(x):
    return drop(x, (0.5, 0.5), 0.25, CN)


def drop_mesh(max_level):
    """Interface-refined mesh, two levels of grading, hanging nodes."""
    mesh = mesh_from_field(
        lambda x: (np.linalg.norm(x - 0.5, axis=-1) - 0.25) / 0.1,
        2, max_level=max_level, min_level=max_level - 2,
    )
    assert mesh.nodes.is_hanging.any()
    return mesh


def past_crossover(mesh):
    return mesh.n_dofs ** (1.0 / mesh.dim) >= GMG_MIN_DOFS_PER_AXIS


@pytest.fixture(scope="module")
def big_mesh():
    mesh = drop_mesh(7)
    assert past_crossover(mesh)
    return mesh


def projection_problem(mesh):
    """A 1000:1 drop and a velocity with divergence ``2x + 1``."""
    prm = CHNSParams(We=1.0, Cn=CN, rho_minus=1e-3)
    xy = mesh.dof_xy()
    vel = np.stack([xy[:, 0] ** 2, xy[:, 1]], axis=1)
    return prm, mesh.interpolate(phi0), vel


def jacobi_cg_oracle(mesh, prm, phi, vel, dt, tol):
    """What ``PPSolver.solve`` did on every mesh before the crossover rule."""
    inv_rho_q = 1.0 / prm.rho_clamped(forms.field_at_quad(mesh, phi))
    K = forms.stiffness(mesh, inv_rho_q)
    b = (prm.We / dt) * forms.flux_divergence_load(
        mesh, forms.field_at_quad(mesh, vel)
    )
    b -= b.mean()
    res = cg(K, b, M=JacobiPreconditioner(K.diagonal() + 1e-12), tol=tol,
             maxiter=20000)
    assert res.converged
    return res.x - res.x.mean(), res.iterations


def count_hierarchy_builds(monkeypatch):
    """Patch ``gmg.hierarchy_for`` to log, per call, whether it had to
    build (True) or found the mesh's chain cached (False)."""
    calls = []
    real = gmg.hierarchy_for

    def counted(mesh, coarsest_level):
        calls.append((mesh.generation, coarsest_level) not in gmg._HIER_CACHE)
        return real(mesh, coarsest_level)

    monkeypatch.setattr(gmg, "hierarchy_for", counted)
    return calls


def test_gmg_path_matches_jacobi_cg_oracle(big_mesh, monkeypatch):
    prm, phi, vel = projection_problem(big_mesh)
    calls = count_hierarchy_builds(monkeypatch)
    res = PPSolver(big_mesh, prm).solve(phi, vel, 0.1, tol=1e-11)
    assert len(calls) == 1  # the solve went through the V-cycle
    p_ref, jacobi_its = jacobi_cg_oracle(big_mesh, prm, phi, vel, 0.1, 1e-11)
    assert res.solve.converged
    assert abs(res.p.mean()) < 1e-12 * np.abs(res.p).max()
    assert np.linalg.norm(res.p - p_ref) <= 1e-7 * np.linalg.norm(p_ref)
    assert res.solve.iterations < jacobi_its / 10


def test_gmg_iterations_do_not_grow_with_refinement(big_mesh, monkeypatch):
    monkeypatch.setattr(pp_solver, "GMG_MIN_DOFS_PER_AXIS", 0.0)
    its = []
    for mesh in (drop_mesh(6), big_mesh):
        prm, phi, vel = projection_problem(mesh)
        res = PPSolver(mesh, prm).solve(phi, vel, 0.1)
        assert res.solve.converged
        its.append(res.solve.iterations)
    assert max(its) <= 15
    assert abs(its[0] - its[1]) <= 2


@pytest.mark.parametrize("crossover", [0.0, np.inf], ids=["gmg", "jacobi"])
def test_schur_projection_converges_with_either(crossover, monkeypatch):
    monkeypatch.setattr(pp_solver, "GMG_MIN_DOFS_PER_AXIS", crossover)
    mesh = Mesh.from_tree(uniform_tree(2, 4))
    prm = CHNSParams(We=1.0)
    xy = mesh.dof_xy()
    vel = np.stack([xy[:, 0] ** 2, xy[:, 1]], axis=1)
    masks, _ = no_slip_bc(mesh)
    calls = count_hierarchy_builds(monkeypatch)
    res = PPSolver(mesh, prm).solve(
        np.ones(mesh.n_dofs), vel, 0.1,
        exact_projection=True, correction_masks=masks,
    )
    assert res.solve.converged
    assert res.solve.residual < 1e-9
    assert len(calls) == (1 if crossover == 0.0 else 0)


def drop_stepper(mesh):
    prm = CHNSParams(Re=10.0, We=1.0, Pe=50.0, Cn=CN, rho_minus=0.1,
                     eta_minus=0.5)
    ts = CHNSTimeStepper(mesh, prm, velocity_bc=no_slip_bc)
    ts.initialize(phi0)
    return ts


def test_stepper_builds_one_hierarchy_per_mesh(monkeypatch):
    calls = count_hierarchy_builds(monkeypatch)
    ts = drop_stepper(drop_mesh(7))  # a new generation: nothing cached
    ts.step(1e-3)
    assert calls == [True]
    ts.step(1e-3)
    assert calls == [True, False]  # second step: the cached chain
    small = drop_mesh(6)
    assert not past_crossover(small)
    del calls[:]
    ts = drop_stepper(small)
    ts.step(1e-3)
    ts.step(1e-3)
    assert calls == []


def test_restored_stepper_takes_the_same_pp_path(monkeypatch):
    """The rule reads only the mesh: a stepper restored onto a rebuilt mesh
    (new generation, no warm caches) reproduces the uninterrupted step bit
    for bit, PP iteration count included.  The uninterrupted stepper drops
    its CH factors where the state is captured, as the runner does at every
    checkpoint step: a restored stepper has none."""
    ts = drop_stepper(drop_mesh(7))
    ts.step(1e-3)
    ts.drop_solver_state()
    state = {k: v.copy() for k, v in ts.fields().items()}
    pp_before = ts.iteration_counts["krylov_pp"]
    ts.step(1e-3)

    calls = count_hierarchy_builds(monkeypatch)
    ts2 = drop_stepper(drop_mesh(7))
    ts2.restore(state, step_count=1, t=1e-3)
    ts2.step(1e-3)
    assert calls == [True]
    assert (ts2.iteration_counts["krylov_pp"]
            == ts.iteration_counts["krylov_pp"] - pp_before)
    for name, vec in ts2.fields().items():
        assert np.array_equal(vec, ts.fields()[name]), name
