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

from ..scenarios.test_runner import _jet2d_amr_levels

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


def test_ns_and_vu_share_one_dirichlet_layout_per_mask(cavity):
    """The layout is the plan's, one per distinct mask: NS's operator and
    VU's mass matrix eliminate and lift through it, and the lifts count
    as no elimination."""
    from repro import obs
    from repro.chns.vu_solver import mass_system

    mesh, prm, masks, values, state = cavity
    plan = get_plan(mesh)
    plan.scatter_loads(np.zeros((mesh.n_elems, 1 << mesh.dim)))  # warm
    bc = dict(dirichlet_masks=masks, dirichlet_values=values)
    split = [masks[0], masks[1] & ~mesh.face_dof_mask(0, 1)]
    bc_split = dict(dirichlet_masks=split, dirichlet_values=values)
    phi, vel, p = state["phi"], state["vel"], state["p"]
    ns, vu = NSSolver(mesh, prm), VUSolver(mesh, prm)
    with obs.tracing():
        for kw in (bc, bc, bc_split):
            ns.solve(phi, state["mu"], vel, vel, p, DT, **kw)
            vu.solve(phi, vel, p, DT, **kw)
        snap = obs.snapshot()
    layouts = sum(node["count"] for path, node in obs.flatten_spans(snap).items()
                  if path.rsplit("/", 1)[-1] == "assembly.symbolic")
    assert layouts == 2  # lid-driven's one mask, then the split's new one
    # NS: one elimination per distinct mask and block (1 + 1 + 2); VU: one
    # per mass system (the lid mask, the split's new mask); lifts: none
    assert snap["counters"]["assembly.dirichlet"] == 4 + 2
    A = plan.assemble(forms.mass_ke(mesh))
    for mask in (masks[0], split[1]):
        assert mass_system(mesh, mask).A.indices is plan.eliminate(A, mask).indices


def test_held_factors_see_only_stored_couplings(monkeypatch):
    """On the ``bubble3d`` benchmark config every matrix factored, held
    (CH, NS, PP) or direct (VU), stores no zero: the eliminated couplings
    are gone from the NS and VU layouts.  NS factors on this mesh (561
    DOFs, within its cap)."""
    from repro.chns import vu_solver
    from repro.la.factors import Factors

    from ..mesh.test_build_oracles import _workloads

    factored = []
    real_factor = Factors.factor

    def factor(self, A, **kwargs):
        factored.append((A.nnz, np.count_nonzero(A.data)))
        return real_factor(self, A, **kwargs)

    real_splu = vu_solver.spla.splu

    class Splu:
        @staticmethod
        def splu(A, **kwargs):
            factored.append((A.nnz, np.count_nonzero(A.data)))
            return real_splu(A, **kwargs)

    monkeypatch.setattr(Factors, "factor", factor)
    monkeypatch.setattr(vu_solver, "spla", Splu)
    wl = _workloads()
    sim = wl.make_sim(wl.generate("bubble3d", 0))
    sim.setup()
    for _ in range(4):
        sim.step()
    counts = sim.counts()
    assert sim.mesh.n_dofs == 561
    assert counts["ns_factorizations"] > 0 and counts["vu_factorizations"] > 0
    assert len(factored) == sum(counts[f"{blk}_factorizations"]
                                for blk in ("ch", "ns", "pp", "vu"))
    assert all(nnz == stored for nnz, stored in factored), factored


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
    twin = Mesh.from_tree(uniform_tree(2, 3))  # a new Mesh, the same tree
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


def _jet_stepper(cfg):
    """``cfg``'s initial mesh and a coupled stepper initialised on it."""
    dom, phi0 = cfg.domain, cfg.build_ic()
    mesh = mesh_from_field(phi0, dom.dim, max_level=dom.max_level,
                           min_level=dom.min_level, threshold=dom.threshold)
    stepper = CHNSTimeStepper(
        mesh, cfg.build_params(), velocity_bc=cfg.build_bc(),
        remesh_config=cfg.refinement.build(),
        remesh_every=cfg.refinement.remesh_every,
    )
    stepper.initialize(phi0)
    return mesh, stepper


def test_coupled_and_remesh_steps_run_clean():
    """Coupled steps before and after a remesh through every guard the
    planned paths carry (shape / shared-structure checks are always on).
    Full ``jet_2d`` at the ``jet2d_amr`` benchmark's levels (interface 5,
    feature 6, a remesh every step): the first cycle coarsens the level-6
    start.  The cycle that keeps the mesh is the next test's."""
    cfg = _jet2d_amr_levels(build("jet_2d", quick=False))
    mesh, stepper = _jet_stepper(cfg)
    for _ in range(cfg.refinement.remesh_every + 1):
        stepper.step(cfg.time.dt)
    assert stepper.mesh is not mesh  # it did remesh
    assert stepper.iteration_counts["remesh_cycles"] == 1
    assert stepper.iteration_counts["remesh_unchanged"] == 0
    assert stepper.iteration_counts["krylov_ns"] > 0
    assert np.all(np.isfinite(stepper.vel)) and np.all(np.isfinite(stepper.p))


def test_unchanged_cycle_keeps_the_solvers_and_their_factors(monkeypatch):
    """Quick ``jet_2d``'s cycle at step 2 reproduces the tree: the stepper
    keeps its mesh (with the plan in its memo), its four solvers and the CH
    factors of steps 0-1, which the next CH solve starts from, and the
    coupled step after the cycle runs clean."""
    cfg = build("jet_2d", quick=True)
    mesh, stepper = _jet_stepper(cfg)
    for _ in range(cfg.refinement.remesh_every):
        stepper.step(cfg.time.dt)
    solvers = [stepper.ch, stepper.ns, stepper.pp, stepper.vu]
    plan = get_plan(mesh)
    lu = stepper.ch._factors.lu
    assert lu is not None
    seen = []
    solve = stepper.ch.solve

    def entry(*args, **kwargs):
        seen.append(stepper.ch._factors.lu)
        return solve(*args, **kwargs)

    monkeypatch.setattr(stepper.ch, "solve", entry)
    stepper.step(cfg.time.dt)  # the remesh, then the CH solve
    assert stepper.iteration_counts["remesh_cycles"] == 1
    assert stepper.iteration_counts["remesh_unchanged"] == 1
    assert stepper.mesh is mesh and get_plan(mesh) is plan
    assert all(a is b for a, b in zip(
        [stepper.ch, stepper.ns, stepper.pp, stepper.vu], solvers))
    assert len(seen) == 1 and seen[0] is lu
    assert np.all(np.isfinite(stepper.vel)) and np.all(np.isfinite(stepper.p))
