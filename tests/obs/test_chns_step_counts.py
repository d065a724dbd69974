"""What one coupled 2D step records in ``repro.obs``: the assembly counters
per block and the ``{ns,pp,vu}.assemble`` spans; what four record of the CH
block's linear work.

The CH block's share follows its Newton iteration count, so it is expressed
through the solver's own per-iterate counters; what NS, PP and VU add is
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


@pytest.fixture
def stepper():
    prm = CHNSParams(Re=40.0, We=2.0, Pe=100.0, Cn=0.08, Fr=1.0,
                     rho_minus=0.4, eta_minus=0.5)

    def phi0(x):
        return drop(x, (0.5, 0.4), 0.2, prm.Cn)

    mesh = mesh_from_field(phi0, 2, max_level=5, min_level=3, threshold=0.95)
    assert mesh.nodes.is_hanging.any()
    ts = CHNSTimeStepper(mesh, prm, velocity_bc=no_slip_bc)
    ts.initialize(phi0)
    return ts


def test_ch_linear_work_of_four_static_mesh_steps(stepper):
    """One mesh generation, one factorization: the first step's LU
    preconditions every later CH solve, and the stepper's cumulative counts
    say what the obs counters say."""
    with obs.tracing():
        for _ in range(4):
            stepper.step(5e-4)
        counters = obs.snapshot()["counters"]
    counts = stepper.iteration_counts
    assert counters["newton.lu_factorizations"] == 1
    assert "newton.lu_fallbacks" not in counters
    assert counts["ch_factorizations"] == 1
    assert counts["newton"] == counters["newton.iterations"]
    # every Newton iterate but the factoring one is a BiCGStab solve
    assert counts["ch_linear"] >= counts["newton"] - 1 > 0
    assert counts["ch_linear"] + counts["krylov"] == counters["krylov.iterations"]


def test_assembly_counters_of_one_coupled_step(stepper):
    ts = stepper
    ts.step(1e-3)  # pays the lazy per-generation builds

    ch_before = dict(ts.ch.counters)
    with obs.tracing():
        ts.step(1e-3)
        snap = obs.snapshot()
    ch = {k: v - ch_before[k] for k, v in ts.ch.counters.items()}
    counters = snap["counters"]

    # CH: one convection operator per solve, one mobility stiffness per
    # iterate, one psi'' mass per Jacobian; one load per residual.
    ch_numeric = 1 + ch["mobility_assemblies"] + ch["jacobian_evals"]
    assert counters["assembly.numeric"] == ch_numeric + 2  # + NS, PP
    assert counters["assembly.vector"] == ch["residual_evals"] + 3  # + NS, PP, VU
    assert counters["assembly.dirichlet"] == 1  # no-slip: one shared mask
    assert "assembly.symbolic" not in counters  # warm generation

    spans = obs.flatten_spans(snap)
    for block in ("ns", "pp", "vu"):
        node = spans[f"chns.step/chns.{block}/{block}.assemble"]
        assert node["count"] == 1
    assert not any(path.endswith("assembly.symbolic") for path in spans)
    assert np.all(np.isfinite(ts.vel))
