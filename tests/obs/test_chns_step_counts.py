"""What one coupled 2D step records in ``repro.obs``: the assembly counters
per block and the ``{ns,pp,vu}.assemble`` spans; what four record of the CH
block's linear work.

The CH block's share follows its Newton iteration count, so it is expressed
through the ``newton`` spans and the ``ch.*`` counters; what NS, PP and VU add is
fixed: one operator scatter each for NS and PP, one load scatter each for
NS, PP and VU, one Dirichlet elimination per distinct velocity mask.
"""

import numpy as np
import pytest

from repro import obs
from repro.chns.initial_conditions import drop
from repro.chns.params import CHNSParams
from repro.chns.timestepper import CHNSTimeStepper, no_slip_bc
from repro.mesh.mesh import mesh_from_field

from ..chns.test_chns import useless_flow_factors


def _drop_stepper():
    prm = CHNSParams(Re=40.0, We=2.0, Pe=100.0, Cn=0.08, Fr=1.0,
                     rho_minus=0.4, eta_minus=0.5)

    def phi0(x):
        return drop(x, (0.5, 0.4), 0.2, prm.Cn)

    mesh = mesh_from_field(phi0, 2, max_level=5, min_level=3, threshold=0.95)
    assert mesh.nodes.is_hanging.any()
    ts = CHNSTimeStepper(mesh, prm, velocity_bc=no_slip_bc)
    ts.initialize(phi0)
    return ts


@pytest.fixture
def stepper():
    return _drop_stepper()


def test_ch_linear_work_of_four_static_mesh_steps(stepper):
    """One mesh, one factorization: the first step's LU
    preconditions every later CH solve, and the stepper's cumulative counts
    say what the obs counters say.  VU factors its one no-slip mask at the
    second step and solves directly from then on (0 iterations); NS and PP
    factor at the second step too and precondition with those factors."""
    with obs.tracing():
        its_vu = []
        for _ in range(4):
            stepper.step(5e-4)
            its_vu.append(stepper.iteration_counts["krylov_vu"])
        counters = obs.snapshot()["counters"]
    counts = stepper.iteration_counts
    assert counters["newton.lu_factorizations"] == 1
    assert counters["vu.lu_factorizations"] == counts["vu_factorizations"] == 1
    assert counters["ns.lu_factorizations"] == counts["ns_factorizations"] == 1
    assert counters["pp.lu_factorizations"] == counts["pp_factorizations"] == 1
    assert "ns.lu_fallbacks" not in counters
    assert "pp.lu_fallbacks" not in counters
    assert its_vu[0] == its_vu[-1] > 0
    assert "newton.lu_fallbacks" not in counters
    # the record's fallback counts are the counters: 0 on a healthy run
    for blk, counter in (("ch", "newton"), ("ns", "ns"), ("pp", "pp")):
        assert (counts[f"{blk}_fallbacks"]
                == counters.get(f"{counter}.lu_fallbacks", 0) == 0)
    assert counts["ch_factorizations"] == 1
    assert counts["newton"] == counters["newton.iterations"]
    # every Newton iterate is an LU-preconditioned BiCGStab solve
    assert counts["ch_linear"] >= counts["newton"] > 0
    assert counts["ch_linear"] + counts["krylov"] == counters["krylov.iterations"]
    for blk in ("ns", "pp", "vu"):
        assert counters[f"krylov.iterations.{blk}"] == counts[f"krylov_{blk}"]


def test_fallbacks_reach_the_stepper_counts(monkeypatch):
    """NS and PP hold factors that precondition nothing: every held solve
    falls back to the block's own solve, and the stepper counts each
    fallback the tracer counts."""
    useless_flow_factors(monkeypatch)
    ts = _drop_stepper()
    with obs.tracing():
        for _ in range(3):
            ts.step(5e-4)
        counters = obs.snapshot()["counters"]
    counts = ts.iteration_counts
    assert counts["ns_fallbacks"] == counters["ns.lu_fallbacks"] > 0
    assert counts["pp_fallbacks"] == counters["pp.lu_fallbacks"] > 0
    assert counts["ch_fallbacks"] == counters.get("newton.lu_fallbacks", 0)


def test_flow_solvers_count_their_own_krylov_work(stepper):
    """The per-block Krylov counters come from the solvers themselves, so a
    caller driving NS -> PP -> VU without the stepper records them too."""
    ts, expected = stepper, {}
    with obs.tracing():
        for _ in range(2):
            ns = ts.ns.solve(ts.phi, ts.mu, ts.vel, ts.vel_old, ts.p, 1e-3,
                             dirichlet_masks=ts.v_masks,
                             dirichlet_values=ts.v_values)
            pp = ts.pp.solve(ts.phi, ns.vel_star, 1e-3, p0=ts.p)
            vu = ts.vu.solve(ts.phi, ns.vel_star, pp.p, 1e-3,
                             dirichlet_masks=ts.v_masks,
                             dirichlet_values=ts.v_values)
            ts.p, ts.vel_old, ts.vel = pp.p, ts.vel, vu.vel
            for blk, solves in (("ns", ns.solves), ("pp", [pp.solve]),
                                ("vu", vu.solves)):
                expected.setdefault(blk, [0, 0])
                expected[blk][0] += sum(s.iterations for s in solves)
                expected[blk][1] += len(solves)
        counters = obs.snapshot()["counters"]
    for blk, (its, n_solves) in expected.items():
        assert counters[f"krylov.iterations.{blk}"] == its
        assert counters[f"krylov.solves.{blk}"] == n_solves
    assert expected["ns"][0] > 0 and expected["pp"][0] > 0


def test_assembly_counters_of_one_coupled_step(stepper):
    ts = stepper
    ts.step(1e-3)  # pays the lazy per-mesh builds

    with obs.tracing():
        ts.step(1e-3)
        snap = obs.snapshot()
    counters = snap["counters"]
    spans = obs.flatten_spans(snap)
    newton = "chns.step/chns.ch/newton/newton."
    residual_evals = spans[newton + "residual"]["count"]
    jacobian_evals = spans[newton + "jacobian"]["count"]
    assert residual_evals == 1 + counters["newton.line_search_trials"]
    assert jacobian_evals == counters["newton.iterations"] > 0

    # CH: one convection operator per solve, one mobility stiffness per
    # iterate, one psi'' mass and one mobility-derivative block per
    # Jacobian; one load per residual.
    assert counters["ch.mobility_assemblies"] == residual_evals
    ch_numeric = 1 + counters["ch.mobility_assemblies"] + 2 * jacobian_evals
    assert counters["assembly.numeric"] == ch_numeric + 2  # + NS, PP
    assert counters["assembly.vector"] == residual_evals + 3  # + NS, PP, VU
    assert counters["assembly.dirichlet"] == 1  # no-slip: one shared mask
    assert "assembly.symbolic" not in counters  # warm mesh

    for block in ("ns", "pp", "vu"):
        node = spans[f"chns.step/chns.{block}/{block}.assemble"]
        assert node["count"] == 1
    assert not any(path.endswith("assembly.symbolic") for path in spans)
    assert np.all(np.isfinite(ts.vel))
