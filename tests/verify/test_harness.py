"""Tests for the MMS verification harness: error norms, order fitting,
report plumbing, and the fast coupled-stepper temporal regression."""

import json
import math

import numpy as np
import pytest

from repro.chns.params import CHNSParams
from repro.mesh.mesh import Mesh
from repro.octree.build import uniform_tree
from repro.verify import harness as H
from repro.verify.harness import (
    CaseResult,
    FieldOrders,
    fit_order,
    h1_error,
    l2_error,
    run_ch_spatial,
    write_report,
)
from repro.verify.manufactured import ch_manufactured, ns_manufactured


def _mesh(level=3):
    return Mesh.from_tree(uniform_tree(2, level))


# ------------------------------------------------------------- fit_order


def test_fit_order_recovers_synthetic_slope():
    hs = [0.25, 0.125, 0.0625]
    for order in (1.0, 2.0, 3.5):
        errs = [h**order for h in hs]
        assert math.isclose(fit_order(hs, errs), order, rel_tol=1e-9)


def test_fit_order_zero_error_passes():
    assert fit_order([0.2, 0.1], [1e-3, 0.0]) == float("inf")


# ----------------------------------------------------------- error norms


def test_l2_error_exact_for_bilinear():
    """Q1 interpolation reproduces bilinear fields exactly."""
    mesh = _mesh()
    f = lambda x, t=0.0: 2.0 + 3.0 * x[:, 0] - x[:, 1] + x[:, 0] * x[:, 1]
    u = mesh.interpolate(lambda xx: f(xx))
    assert l2_error(mesh, u, f) < 1e-13
    assert h1_error(mesh, u, lambda x, t=0.0: np.stack(
        [3.0 + x[:, 1], -1.0 + x[:, 0]], axis=1
    )) < 1e-13


def test_l2_error_discrete_reference():
    mesh = _mesh()
    u = mesh.interpolate(lambda xx: xx[:, 0])
    v = mesh.interpolate(lambda xx: xx[:, 0] + 1.0)
    assert math.isclose(l2_error(mesh, u, v), 1.0, rel_tol=1e-12)
    assert l2_error(mesh, u, u) == 0.0


def test_l2_error_converges_second_order():
    errs = []
    hs = []
    f = lambda x, t=0.0: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    for lev in (2, 3, 4):
        mesh = _mesh(lev)
        errs.append(l2_error(mesh, mesh.interpolate(lambda xx: f(xx)), f))
        hs.append(1.0 / (1 << lev))
    assert fit_order(hs, errs) > 1.9


# -------------------------------------------------------- report payload


def test_case_result_gating():
    good = CaseResult(
        name="x", ladder=[0.1, 0.05],
        fields={"phi": FieldOrders([1e-2, 2.5e-3], 2.0)},
        thresholds={"phi": 1.9},
    )
    assert good.passed
    bad = CaseResult(
        name="x", ladder=[0.1, 0.05],
        fields={"phi": FieldOrders([1e-2, 6e-3], 0.7)},
        thresholds={"phi": 1.9},
    )
    assert not bad.passed


def test_write_report_round_trips(tmp_path):
    report = {"quick": True, "cases": [], "passed": True}
    path = tmp_path / "verify_report.json"
    write_report(report, str(path))
    assert json.loads(path.read_text()) == report


# ------------------------------------- manufactured solutions sanity
#
# The closed forms are checked against their PDEs by central differences
# (step ``_H``, error O(_H^2) ~ 1e-6 relative) at interior random points.

_H = 1e-3
_E = np.eye(2)


def _points(n=200, seed=0):
    return np.random.default_rng(seed).uniform(0.02, 0.98, (n, 2))


def _d(f, x, t, k):
    """Central difference of ``f(pts, t)`` along ``x_k``."""
    return (f(x + _H * _E[k], t) - f(x - _H * _E[k], t)) / (2 * _H)


def _dt(f, x, t):
    return (f(x, t + _H) - f(x, t - _H)) / (2 * _H)


def _lap(f, x, t):
    return sum(
        f(x + _H * _E[k], t) - 2 * f(x, t) + f(x - _H * _E[k], t)
        for k in range(2)
    ) / _H**2


def _close(got, want, rtol=1e-4):
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def test_ch_manufactured_satisfies_bcs():
    mms = ch_manufactured(10.0, 0.2)
    mesh = _mesh()
    xy = mesh.dof_xy()
    phi = mms.phi(xy, 0.3)
    assert np.max(np.abs(phi)) <= 0.5 + 1e-12  # mobility stays off clamp
    # no-flux: d(phi)/dn = 0 on every wall
    g = mms.grad_phi(xy, 0.3)
    for axis, side in ((0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0)):
        on = np.isclose(xy[:, axis], side)
        assert np.allclose(g[on, axis], 0.0, atol=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.3])
def test_ch_manufactured_satisfies_its_pde(t):
    """``mu = phi^3 - phi - Cn^2 lap phi`` and ``f_phi = d phi/dt -
    div(m grad mu) / (Pe Cn)``, the flux divergence in flux form with
    ``m = sqrt(1 - phi^2)`` at the half points."""
    Pe, Cn = 10.0, 0.2
    mms = ch_manufactured(Pe, Cn)
    x = _points()
    phi = mms.phi(x, t)
    assert _close(mms.mu(x, t), phi**3 - phi - Cn**2 * _lap(mms.phi, x, t))
    grad = np.stack([_d(mms.phi, x, t, k) for k in range(2)], axis=1)
    assert _close(mms.grad_phi(x, t), grad)
    m = lambda y: np.sqrt(1.0 - mms.phi(y, t) ** 2)
    flux_div = 0.0
    for k in range(2):
        up, dn = x + _H * _E[k], x - _H * _E[k]
        flux_div = flux_div + (
            m(x + 0.5 * _H * _E[k]) * (mms.mu(up, t) - mms.mu(x, t))
            - m(x - 0.5 * _H * _E[k]) * (mms.mu(x, t) - mms.mu(dn, t))
        ) / _H**2
    assert _close(mms.f_phi(x, t), _dt(mms.phi, x, t) - flux_div / (Pe * Cn))


def test_ns_manufactured_is_divergence_free_and_no_slip():
    mms = ns_manufactured(1.0, 1.0)
    mesh = _mesh()
    xy = mesh.dof_xy()
    v = mms.vel(xy, 0.2)
    on_boundary = mesh.boundary_dof_mask()
    assert np.allclose(v[on_boundary], 0.0, atol=1e-12)
    g = mms.grad_vel(xy, 0.2)  # (npts, i, j) = d v_i / d x_j
    assert np.allclose(g[:, 0, 0] + g[:, 1, 1], 0.0, atol=1e-10)


@pytest.mark.parametrize("t", [0.0, 0.2])
@pytest.mark.parametrize("Re, We", [(1.0, 1.0), (2.0, 0.5)])
def test_ns_manufactured_satisfies_its_pde(t, Re, We):
    """``grad_vel``, ``div v = 0`` and ``forcing = dv/dt + (v.grad)v +
    grad p / We - lap v / Re``."""
    mms = ns_manufactured(Re, We)
    x = _points()
    grad = np.stack([_d(mms.vel, x, t, k) for k in range(2)], axis=2)
    assert _close(mms.grad_vel(x, t), grad)
    assert np.max(np.abs(grad[:, 0, 0] + grad[:, 1, 1])) <= 1e-4 * np.max(
        np.abs(grad))
    grad_p = np.stack([_d(mms.p, x, t, k) for k in range(2)], axis=1)
    adv = np.einsum("nij,nj->ni", grad, mms.vel(x, t))
    momentum = (_dt(mms.vel, x, t) + adv + grad_p / We
                - _lap(mms.vel, x, t) / Re)
    assert _close(mms.forcing(x, t), momentum)


# ------------------------- fast coupled temporal regression (2-point)


def test_coupled_stepper_dt_halving_regression():
    """Order-loss tripwire on the coupled CHNS projection stepper: halving
    dt must cut the velocity error by at least 2^1.5 (the scheme delivers
    ~2^2.4 here; a first-order regression gives ~2^1 and fails)."""
    prm = CHNSParams(Re=1.0, We=1.0, rho_minus=1.0, eta_minus=1.0)
    mms = ns_manufactured(prm.Re, prm.We)
    T = 0.32
    ref = H._ns_final_state(3, 0.01, 32, prm, mms)
    errs = [
        l2_error(
            ref.mesh,
            H._ns_final_state(3, dt, int(round(T / dt)), prm, mms).vel,
            ref.vel,
        )
        for dt in (0.08, 0.04)
    ]
    assert errs[0] / errs[1] > 2.0**1.5


# ------------------------------------------------------- graded ladder


def test_ch_spatial_quadrant_ladder_passes():
    """The quick set's graded rungs, on the quadrant and the half-graded
    tree: the CH ladder on meshes with hanging nodes (so the plan's
    hanging-slot expansion runs end to end) keeps its second order."""
    for tree in ("quadrant", "half"):
        for level in (2, 3, 4):
            nodes = Mesh.from_tree(H.TREES[tree](2, level)).nodes
            assert nodes.is_hanging.sum() == 1 << level
        case = run_ch_spatial((2, 3, 4), tree=tree)
        assert case.name == f"ch_spatial_{tree}"
        assert case.thresholds == {"phi": 1.9}
        assert case.passed, (tree, case.fields)


# ------------------------------------------------ quick spatial ladders


def test_ch_spatial_quick_ladder_passes():
    case = run_ch_spatial((2, 3, 4))
    assert case.passed, case.fields


def test_ns_spatial_quick_ladder_passes():
    case = H.run_ns_spatial((2, 3, 4))
    assert case.passed, case.fields
