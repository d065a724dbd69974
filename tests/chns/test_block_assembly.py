"""Each flow block assembles its operator once.

Structural pins (counts and identities, no wall clock) of the block-assembly
contract: one ``AssemblyPlan.assemble`` per NS solve, one
eliminated system and one preconditioner per *distinct* Dirichlet mask, no
CSR operator sums, and one quadrature-point evaluation of ``phi`` for NS, PP
and VU together — with a cache hit bit for bit the recomputed value.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.chns import forms
from repro.chns.ns_solver import NSSolver
from repro.chns.params import CHNSParams
from repro.chns.pp_solver import PPSolver
from repro.chns.timestepper import CHNSTimeStepper, lid_driven_bc
from repro.chns.vu_solver import VUSolver
from repro.fem.plan import AssemblyPlan, get_plan
from repro.la.precond import JacobiPreconditioner
from repro.mesh.mesh import Mesh, mesh_from_field
from repro.octree.build import uniform_tree
from repro.scenarios import build

DT = 0.01


def counting(monkeypatch, owner, name):
    """Count calls of ``owner.name`` the way ``benchmarks/perf/trace.py``
    does: a wrapper on the class, the original still runs."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.fixture
def cavity():
    mesh = Mesh.from_tree(uniform_tree(2, 3))
    prm = CHNSParams(rho_minus=0.3, eta_minus=0.4)
    masks, values = lid_driven_bc(mesh)
    n = mesh.n_dofs
    rng = np.random.default_rng(0)
    vel = np.zeros((n, 2))
    for i in range(2):
        vel[masks[i], i] = values[i][masks[i]]
    state = dict(phi=rng.uniform(-1, 1, n), mu=rng.standard_normal(n),
                 vel=vel, p=np.zeros(n))
    return mesh, prm, masks, values, state


def ns_solve(mesh, prm, masks, values, state):
    return NSSolver(mesh, prm).solve(
        state["phi"], state["mu"], state["vel"], state["vel"], state["p"], DT,
        dirichlet_masks=masks, dirichlet_values=values,
    )


def test_ns_scatters_its_operator_once(monkeypatch, cavity):
    mesh, prm, masks, values, state = cavity
    get_plan(mesh)  # the symbolic build is not what is counted
    assembles = counting(monkeypatch, AssemblyPlan, "assemble")
    loads = counting(monkeypatch, AssemblyPlan, "scatter_loads")
    res = ns_solve(mesh, prm, masks, values, state)
    assert all(s.converged for s in res.solves)
    assert len(assembles) == 1
    assert len(loads) == 1  # every term of both right-hand sides


def test_ns_builds_one_system_per_distinct_mask(monkeypatch, cavity):
    mesh, prm, masks, values, state = cavity
    builds = counting(monkeypatch, JacobiPreconditioner, "__init__")
    eliminations = counting(monkeypatch, AssemblyPlan, "eliminate")
    ns_solve(mesh, prm, masks, values, state)  # lid-driven: one shared mask
    assert (len(builds), len(eliminations)) == (1, 1)
    split = [masks[0], masks[1] & ~mesh.face_dof_mask(0, 1)]
    ns_solve(mesh, prm, split, values, state)
    assert (len(builds), len(eliminations)) == (3, 3)
    ns_solve(mesh, prm, None, None, state)  # unconstrained: nothing to eliminate
    assert (len(builds), len(eliminations)) == (4, 3)


def test_ns_never_sums_csr_matrices(monkeypatch, cavity):
    mesh, prm, masks, values, state = cavity

    def boom(self, other):
        raise AssertionError("scipy.sparse operator sum on the NS hot path")

    for op in ("__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(sp.csr_matrix, op, boom)
    A = get_plan(mesh).assemble(forms.mass_ke(mesh))
    with pytest.raises(AssertionError, match="operator sum"):
        A + A  # the guard is armed for the matrices the plan hands out
    res = ns_solve(mesh, prm, masks, values, state)
    assert all(s.converged for s in res.solves)


def flow_blocks(mesh, prm, masks, values, state, between=lambda: None):
    """NS -> PP -> VU on one ``phi``, as ``CHNSTimeStepper`` and the
    benchmark's cavity driver chain them."""
    bc = dict(dirichlet_masks=masks, dirichlet_values=values)
    phi, vel = state["phi"], state["vel"]
    ns = NSSolver(mesh, prm).solve(phi, state["mu"], vel, vel, state["p"], DT, **bc)
    between()
    pp = PPSolver(mesh, prm).solve(phi, ns.vel_star, DT, p0=state["p"])
    between()
    vu = VUSolver(mesh, prm).solve(phi, ns.vel_star, pp.p, DT, **bc)
    return ns.vel_star, pp.p, vu.vel


def test_phase_is_evaluated_once_per_phi_and_generation(monkeypatch, cavity):
    mesh, prm, masks, values, state = cavity
    evals = counting(monkeypatch, CHNSParams, "rho_clamped")
    flow_blocks(mesh, prm, masks, values, state)
    assert len(evals) == 1
    flow_blocks(mesh, prm, masks, values, state)  # next step, same phi: a hit
    assert len(evals) == 1
    state["phi"][3] += 0.25  # changed in place
    flow_blocks(mesh, prm, masks, values, state)
    assert len(evals) == 2
    state["phi"] = state["phi"] * 0.5  # rebound
    flow_blocks(mesh, prm, masks, values, state)
    assert len(evals) == 3
    other = CHNSParams(rho_minus=0.5, eta_minus=0.4)  # another mixture law
    flow_blocks(mesh, other, masks, values, state)
    assert len(evals) == 4
    twin = Mesh.from_tree(uniform_tree(2, 3))  # a new Mesh.generation
    flow_blocks(twin, prm, masks, values, state)
    assert len(evals) == 5


def test_phase_cache_hit_is_bitwise_the_recomputed_value(cavity):
    """Clearing the slot between the three solves changes no output bit —
    what keeps checkpoint/restart bit-identical (a resumed run starts with
    an empty slot)."""
    mesh, prm, masks, values, state = cavity
    cached = flow_blocks(mesh, prm, masks, values, state)
    recomputed = flow_blocks(
        mesh, prm, masks, values, state, between=mesh.memo.clear
    )
    for a, b in zip(cached, recomputed):
        assert np.array_equal(a, b)
    ph = forms.phase_at_quad(mesh, prm, state["phi"])
    assert ph is forms.phase_at_quad(mesh, prm, state["phi"].copy())
    with pytest.raises(ValueError, match="read-only"):
        ph.rho_q[0, 0] = 0.0  # shared between the three solvers


def test_coupled_and_remesh_steps_run_clean():
    """Coupled steps before and after a remesh through every guard the
    planned paths carry (shape / shared-structure checks are always on)."""
    cfg = build("jet_2d", quick=True)
    dom, phi0 = cfg.domain, cfg.build_ic()
    mesh = mesh_from_field(phi0, dom.dim, max_level=dom.max_level,
                           min_level=dom.min_level, threshold=dom.threshold)
    stepper = CHNSTimeStepper(
        mesh, cfg.build_params(), velocity_bc=cfg.build_bc(),
        remesh_config=cfg.refinement.build(),
        remesh_every=cfg.refinement.remesh_every,
    )
    stepper.initialize(phi0)
    for _ in range(cfg.refinement.remesh_every + 1):
        stepper.step(cfg.time.dt)
    assert stepper.mesh.generation != mesh.generation  # it did remesh
    assert stepper.iteration_counts["krylov_ns"] > 0
    assert np.all(np.isfinite(stepper.vel)) and np.all(np.isfinite(stepper.p))
