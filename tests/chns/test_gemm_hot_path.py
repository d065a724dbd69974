"""The step hot path never falls back to NumPy's generic einsum loop.

A 3- or 4-operand ``np.einsum`` without ``optimize`` is a nested C loop, not
BLAS; ``repro.fem.operators`` applies every elemental operator as one matrix
product against a cached reference tensor instead.  These tests pin that
structurally (no wall clock): ``numpy.einsum`` — the object
``repro.fem.operators`` and every other module calls — raises when handed
more than two operands while real steps run.
"""

import numpy as np
import pytest

from repro.chns.ns_solver import NSSolver
from repro.chns.params import CHNSParams
from repro.chns.pp_solver import PPSolver
from repro.chns.timestepper import lid_driven_bc
from repro.chns.vu_solver import VUSolver
from repro.fem import operators
from repro.mesh.mesh import Mesh
from repro.octree.build import uniform_tree
from repro.scenarios import build, run_scenario


@pytest.fixture
def two_operand_einsum_only(monkeypatch):
    real = np.einsum

    def guarded(subscripts, *operands, **kwargs):
        if len(operands) > 2:
            raise AssertionError(
                f"generic {len(operands)}-operand einsum {subscripts!r} "
                "on the step hot path"
            )
        return real(subscripts, *operands, **kwargs)

    assert operators.np is np
    monkeypatch.setattr(operators.np, "einsum", guarded)


def test_guard_fires(two_operand_einsum_only):
    with pytest.raises(AssertionError, match="3-operand"):
        np.einsum("q,eq,qi->ei", np.ones(2), np.ones((1, 2)), np.ones((2, 3)))
    assert np.einsum("q,eq->e", np.ones(2), np.ones((1, 2)))[0] == 2.0


@pytest.mark.parametrize("name", ["rising_bubble_2d", "rising_bubble_3d"])
def test_chns_step_is_einsum_loop_free(two_operand_einsum_only, name):
    cfg = build(name, quick=True)
    cfg.time.n_steps = 1
    res = run_scenario(cfg)
    assert res.status == "succeeded", res.error
    assert res.steps_done == 1
    assert res.counts["newton"] > 0 and res.counts["krylov"] > 0


def test_cavity_blocks_are_einsum_loop_free(two_operand_einsum_only):
    """Single-phase lid-driven cavity, NS -> PP -> VU driven directly."""
    mesh = Mesh.from_tree(uniform_tree(2, 3))
    prm = CHNSParams()
    masks, values = lid_driven_bc(mesh)
    bc = dict(dirichlet_masks=masks, dirichlet_values=values)
    n = mesh.n_dofs
    phi, mu, p = np.ones(n), np.zeros(n), np.zeros(n)
    vel = np.zeros((n, 2))
    for i in range(2):
        vel[masks[i], i] = values[i][masks[i]]
    dt = 0.01
    ns = NSSolver(mesh, prm).solve(phi, mu, vel, vel, p, dt, **bc)
    pp = PPSolver(mesh, prm).solve(phi, ns.vel_star, dt, p0=p)
    vu = VUSolver(mesh, prm).solve(phi, ns.vel_star, pp.p, dt, **bc)
    assert np.all(np.isfinite(vu.vel)) and np.abs(vu.vel).max() > 0
    assert pp.solve.converged and all(s.converged for s in vu.solves)
