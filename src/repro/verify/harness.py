"""Refinement ladders, error norms and order fitting for the MMS layer.

Two ladder kinds per solver family:

* **Spatial**: uniform meshes at increasing tree level with ``dt``
  proportional to ``h`` (both schemes are second order, so the total error
  contracts as ``h^2`` along the ladder) — errors measured against the
  exact solution in L2 and H1-seminorm at the final time.
* **Temporal**: one fixed mesh, dt-halving against a small-dt reference
  computed *on the same mesh*, which cancels the spatial error exactly and
  isolates the order of the time discretization.

``fit_order`` is a least-squares slope of ``log(err)`` vs ``log(h)`` (or
``log(dt)``); :func:`run_all` executes every case and produces the
machine-readable ``verify_report.json`` payload that the CI ``verify-smoke``
job gates on.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..chns import forms
from ..chns.ch_solver import CHSolver
from ..chns.params import CHNSParams
from ..chns.timestepper import CHNSTimeStepper, no_slip_bc
from ..mesh.mesh import Mesh
from ..octree import morton
from ..octree.build import build_tree, uniform_tree
from .manufactured import ch_manufactured, ns_manufactured

# ----------------------------------------------------------------- norms


def l2_error(
    mesh: Mesh, u: np.ndarray, exact: Optional[Callable], t: float = 0.0
) -> float:
    """``||u_h - u*||_{L2}`` by quadrature.  ``exact=None`` gives ``||u_h||``;
    ``exact`` may also be a DOF array (same-mesh discrete reference)."""
    uq = forms.field_at_quad(mesh, u)
    if exact is not None:
        if callable(exact):
            xq = forms.quad_xy(mesh)
            e, q, dim = xq.shape
            ex = np.asarray(exact(xq.reshape(-1, dim), t))
            uq = uq - ex.reshape(uq.shape)
        else:
            uq = uq - forms.field_at_quad(mesh, np.asarray(exact))
    sq = uq**2 if uq.ndim == 2 else np.sum(uq**2, axis=-1)
    return float(np.sqrt(forms.integrate(mesh, sq)))


def h1_error(
    mesh: Mesh, u: np.ndarray, grad_exact: Optional[Callable], t: float = 0.0
) -> float:
    """H1 seminorm ``||grad(u_h - u*)||_{L2}``.  For a vector field the
    exact gradient callable returns ``(npts, k, dim)`` (``d u_k / d x_j``)
    and is transposed to the discrete layout ``(e, q, dim, k)``."""
    gq = forms.grad_at_quad(mesh, u)  # (e, q, dim[, k])
    if grad_exact is not None:
        xq = forms.quad_xy(mesh)
        e, q, dim = xq.shape
        ex = np.asarray(grad_exact(xq.reshape(-1, dim), t))
        if gq.ndim == 3:  # scalar field: exact (npts, dim)
            gq = gq - ex.reshape(e, q, dim)
        else:  # vector field: exact (npts, k, dim) -> (e, q, dim, k)
            k = gq.shape[-1]
            gq = gq - ex.reshape(e, q, k, dim).transpose(0, 1, 3, 2)
    axes = tuple(range(2, gq.ndim))
    sq = np.sum(gq**2, axis=axes)
    return float(np.sqrt(forms.integrate(mesh, sq)))


def fit_order(hs, errs) -> float:
    """Least-squares slope of log(err) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if np.any(errs <= 0):
        return float("inf")  # exact to round-off: treat as passing
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


# ----------------------------------------------------------------- cases


@dataclass
class FieldOrders:
    l2_errors: List[float]
    l2_order: float
    h1_errors: Optional[List[float]] = None
    h1_order: Optional[float] = None


@dataclass
class CaseResult:
    name: str
    ladder: List[float]  # h per level, or dt per rung
    fields: Dict[str, FieldOrders]
    thresholds: Dict[str, float]  # field -> required L2 order
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = all(
            self.fields[f].l2_order >= self.thresholds[f]
            for f in self.thresholds
        )


_HALF = 1 << (morton.MAX_DEPTH - 1)  # the anchor coordinate of 1/2


def _graded_tree(finer: Callable) -> Callable:
    """``tree(dim, level)``, one level finer where the ``build_tree``
    predicate ``finer`` holds: hanging nodes line the interfaces."""
    return lambda dim, level: build_tree(dim, finer, min_level=level,
                                         max_level=level + 1)


#: the meshes a ladder runs on, by name: ``tree(dim, level)``.  The graded
#: trees are finer where ``x, y < 1/2`` (two interfaces) or ``x >= 1/2``.
TREES = {
    "uniform": uniform_tree,
    "quadrant": _graded_tree(
        lambda a, _: (a[:, 0] < _HALF) & (a[:, 1] < _HALF)),
    "half": _graded_tree(lambda a, _: a[:, 0] >= _HALF),
}


def _ch_final_state(level: int, dt: float, nsteps: int, prm, mms, theta=0.5,
                    tree="uniform"):
    mesh = Mesh.from_tree(TREES[tree](2, level))
    ch = CHSolver(mesh, prm)
    phi = mesh.interpolate(lambda xx: mms.phi(xx, 0.0))
    mu = ch.initial_mu(phi)
    for n in range(nsteps):
        tn = n * dt
        s = theta * forms.source_at(mesh, mms.f_phi, tn + dt)
        if theta != 1.0:
            s = s + (1.0 - theta) * forms.source_at(mesh, mms.f_phi, tn)
        res = ch.solve(phi, mu, None, dt, theta=theta, source_phi=s, tol=1e-12)
        phi, mu = res.phi, res.mu
    return mesh, phi, mu


def run_ch_spatial(levels, *, T=0.2, cfl=0.5, prm=None,
                   tree="uniform") -> CaseResult:
    """CH spatial ladder; ``tree`` names the mesh (:data:`TREES`), and
    ``h`` is a level's coarsest element size."""
    prm = prm or CHNSParams(Pe=10.0, Cn=0.2)
    mms = ch_manufactured(prm.Pe, prm.Cn)
    hs, e_phi, e_mu, g_phi = [], [], [], []
    for lev in levels:
        h = 1.0 / (1 << lev)
        nsteps = max(2, int(round(T / (cfl * h))))
        dt = T / nsteps
        mesh, phi, mu = _ch_final_state(lev, dt, nsteps, prm, mms,
                                        tree=tree)
        hs.append(h)
        e_phi.append(l2_error(mesh, phi, mms.phi, T))
        e_mu.append(l2_error(mesh, mu, mms.mu, T))
        g_phi.append(h1_error(mesh, phi, mms.grad_phi, T))
    return CaseResult(
        name="ch_spatial" if tree == "uniform" else f"ch_spatial_{tree}",
        ladder=hs,
        fields={
            "phi": FieldOrders(e_phi, fit_order(hs, e_phi),
                               g_phi, fit_order(hs, g_phi)),
            "mu": FieldOrders(e_mu, fit_order(hs, e_mu)),
        },
        thresholds={"phi": 1.9},
    )


def run_ch_temporal(level, dts, *, T=0.2, prm=None) -> CaseResult:
    prm = prm or CHNSParams(Pe=10.0, Cn=0.2)
    mms = ch_manufactured(prm.Pe, prm.Cn)
    ref_dt = min(dts) / 4.0
    mesh, phi_ref, _ = _ch_final_state(
        level, ref_dt, int(round(T / ref_dt)), prm, mms
    )
    errs = []
    for dt in dts:
        _, phi, _ = _ch_final_state(level, dt, int(round(T / dt)), prm, mms)
        errs.append(l2_error(mesh, phi, phi_ref))
    return CaseResult(
        name="ch_temporal",
        ladder=list(dts),
        fields={"phi": FieldOrders(errs, fit_order(dts, errs))},
        thresholds={"phi": 1.9},
    )


def _smooth_pressure(mesh: Mesh, p: np.ndarray, passes: int = 2) -> np.ndarray:
    """Consistent-mass Jacobi smoothing ``p <- M_L^{-1} M p``.

    The stabilized equal-order projection leaves an O(1)-amplitude
    checkerboard component in the raw pressure (the inf-sup defect mode the
    Brezzi-Pitkaranta term merely bounds).  Each smoothing pass damps the
    checkerboard by ~1/9 in 2D while perturbing smooth modes by only
    ``O(h^2)`` (``M_L^{-1} M = I + O(h^2) lap``), so the smoothed field is
    the mesh-convergent pressure readout — the standard reporting practice
    for stabilized equal-order discretizations."""
    M = forms.mass(mesh)
    ML = np.asarray(M.sum(axis=1)).ravel()
    for _ in range(passes):
        p = (M @ p) / ML
    return p - p.mean()


def _project_div_free(ts: CHNSTimeStepper, vel: np.ndarray) -> np.ndarray:
    """Discrete Leray projection of a velocity DOF field.

    The interpolant of an exactly divergence-free field is not *discretely*
    divergence-free (``div_h v = O(h^2)``); started unprojected, the first
    pressure increment spikes like ``O(h^2/dt)`` and wrecks the temporal
    ladder.  One PP+VU pass at unit pseudo-timestep removes the divergence
    (the dt scaling cancels between the two solves)."""
    pp = ts.pp.solve(
        ts.phi, vel, 1.0, tol=1e-12,
        exact_projection=True, correction_masks=ts.v_masks,
    )
    vu = ts.vu.solve(
        ts.phi, vel, pp.p, 1.0,
        dirichlet_masks=ts.v_masks, dirichlet_values=ts.v_values,
        tol=1e-12,
    )
    return vu.vel


def _ns_stepper(level: int, dt: float, prm, mms) -> CHNSTimeStepper:
    mesh = Mesh.from_tree(uniform_tree(2, level))
    ts = CHNSTimeStepper(
        mesh, prm, velocity_bc=no_slip_bc, ns_forcing=mms.forcing,
        pp_mode="schur",
    )
    n = mesh.n_dofs
    xy = mesh.dof_xy()
    p0 = mms.p(xy, 0.0)
    ts.phi, ts.mu = np.ones(n), np.zeros(n)
    ts.p = p0 - p0.mean()
    ts.vel = _project_div_free(ts, mms.vel(xy, 0.0))
    ts.vel_old = _project_div_free(ts, mms.vel(xy, -dt))
    _equilibrate_pressure(ts, dt, mms)
    return ts


def _equilibrate_pressure(ts: CHNSTimeStepper, dt: float, mms) -> None:
    """Relax the stored pressure onto the discrete projection fixed point.

    The interpolant of the exact pressure is not the *discrete* pressure
    the scheme settles on; started off the fixed point, the first few
    steps absorb an O(1) transient that differs per ladder rung (different
    step counts to the same final time) and pollutes the measured temporal
    order.  With the exact Schur projection the predictor/projection pair
    is a Richardson iteration whose contraction rate is O(dt) — a handful
    of passes at frozen t=0 state puts the pressure on the fixed point
    before the clock starts."""
    F = 0.5 * (
        forms.source_at(ts.mesh, mms.forcing, 0.0)
        + forms.source_at(ts.mesh, mms.forcing, dt)
    )
    p = ts.p
    for _ in range(50):
        ns = ts.ns.solve(
            ts.phi, ts.mu, ts.vel, ts.vel_old, p, dt,
            dirichlet_masks=ts.v_masks, dirichlet_values=ts.v_values,
            forcing=F,
        )
        pp = ts.pp.solve(
            ts.phi, ns.vel_star, dt,
            exact_projection=True, correction_masks=ts.v_masks,
        )
        p = p + pp.p
        p -= p.mean()
        if float(np.linalg.norm(pp.p)) < 1e-11 * max(
            1.0, float(np.linalg.norm(p))
        ):
            break
    ts.p = p


def _ns_final_state(level, dt, nsteps, prm, mms):
    ts = _ns_stepper(level, dt, prm, mms)
    for _ in range(nsteps):
        ts.step(dt)
    return ts


def run_ns_spatial(levels, *, T=0.1, cfl=0.25, prm=None) -> CaseResult:
    prm = prm or CHNSParams(Re=1.0, We=1.0, rho_minus=1.0, eta_minus=1.0)
    mms = ns_manufactured(prm.Re, prm.We)
    hs, e_v, e_p, g_v = [], [], [], []
    for lev in levels:
        h = 1.0 / (1 << lev)
        nsteps = max(2, int(round(T / (cfl * h))))
        dt = T / nsteps
        ts = _ns_final_state(lev, dt, nsteps, prm, mms)
        hs.append(h)
        e_v.append(l2_error(ts.mesh, ts.vel, mms.vel, T))
        e_p.append(l2_error(ts.mesh, _smooth_pressure(ts.mesh, ts.p), mms.p, T))
        g_v.append(h1_error(ts.mesh, ts.vel, mms.grad_vel, T))
    return CaseResult(
        name="ns_spatial",
        ladder=hs,
        fields={
            "vel": FieldOrders(e_v, fit_order(hs, e_v),
                               g_v, fit_order(hs, g_v)),
            "p": FieldOrders(e_p, fit_order(hs, e_p)),
        },
        thresholds={"vel": 1.9, "p": 0.7},
    )


def run_ns_temporal(level, dts, *, T=0.32, prm=None) -> CaseResult:
    prm = prm or CHNSParams(Re=1.0, We=1.0, rho_minus=1.0, eta_minus=1.0)
    mms = ns_manufactured(prm.Re, prm.We)
    ref_dt = min(dts) / 8.0
    ref = _ns_final_state(level, ref_dt, int(round(T / ref_dt)), prm, mms)
    errs_v, errs_p = [], []
    p_ref = _smooth_pressure(ref.mesh, ref.p)
    for dt in dts:
        ts = _ns_final_state(level, dt, int(round(T / dt)), prm, mms)
        errs_v.append(l2_error(ref.mesh, ts.vel, ref.vel))
        errs_p.append(l2_error(ref.mesh, _smooth_pressure(ts.mesh, ts.p), p_ref))
    return CaseResult(
        name="ns_temporal",
        ladder=list(dts),
        fields={
            "vel": FieldOrders(errs_v, fit_order(dts, errs_v)),
            "p": FieldOrders(errs_p, fit_order(dts, errs_p)),
        },
        thresholds={"vel": 1.9, "p": 0.7},
    )


# ---------------------------------------------------------------- driver


def run_all(quick: bool = True) -> dict:
    """Every ladder; ``quick`` is the CI-sized configuration."""
    if quick:
        cases = [
            run_ch_spatial((2, 3, 4)),
            run_ch_spatial((2, 3, 4), tree="quadrant"),
            run_ch_spatial((2, 3, 4), tree="half"),
            run_ch_temporal(3, (0.1, 0.05, 0.025)),
            run_ns_spatial((2, 3, 4)),
            run_ns_temporal(3, (0.08, 0.04, 0.02)),
        ]
    else:
        cases = [
            run_ch_spatial((3, 4, 5)),
            run_ch_spatial((3, 4, 5), tree="quadrant"),
            run_ch_spatial((3, 4, 5), tree="half"),
            run_ch_temporal(4, (0.1, 0.05, 0.025, 0.0125)),
            run_ns_spatial((3, 4, 5)),
            run_ns_temporal(4, (0.08, 0.04, 0.02, 0.01)),
        ]
    return {
        "quick": quick,
        "cases": [asdict(c) for c in cases],
        "passed": all(c.passed for c in cases),
    }


def write_report(report: dict, path: str = "verify_report.json") -> None:
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
