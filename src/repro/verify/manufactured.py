"""Manufactured solutions for the CHNS blocks, in closed form.

Each factory picks an exact solution that satisfies the discrete boundary
conditions *exactly* (so no BC-inconsistency error pollutes the measured
order), substitutes it into the continuous PDE by hand, and returns the
fields and the residual as NumPy functions ``f(pts, t)``; the residual is
the forcing the solvers inject through ``chns.forms.source_at``.
``tests/verify/test_harness.py`` checks each against its PDE by central
differences.

* CH: ``phi* = (1/2) cos(pi x) cos(pi y) cos(t)`` — no-flux on every wall
  (the natural CH boundary condition).  The forcing uses the paper's
  ``psi'(phi) = phi^3 - phi`` and mobility ``m = sqrt(1 - phi^2)``
  unclamped; ``|phi*| <= 1/2`` keeps the code's mobility clamp inactive.
* NS: divergence-free velocity from the streamfunction
  ``sin^2(pi x) sin^2(pi y) cos(t)`` — identically zero on the whole
  boundary, matching the no-slip masks — with pressure
  ``cos(pi x) cos(pi y) cos(t)`` (mean-zero, ``grad p . n = 0``, so the
  projection step's no-penetration weak form is exact).  Run single-phase
  (``phi = 1``, matched densities): the capillary, gravity and diffusive-
  flux terms vanish and the momentum forcing is the classical
  ``dv/dt + (v.grad)v + grad p / We - lap v / Re``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

PI = np.pi


@dataclass(frozen=True)
class CHManufactured:
    """Exact CH fields and forcing: every attribute is ``f(pts, t)``."""

    phi: Callable
    mu: Callable
    grad_phi: Callable  # (npts, 2)
    f_phi: Callable  # forcing for the phase-field equation


@dataclass(frozen=True)
class NSManufactured:
    """Exact single-phase NS fields and momentum forcing."""

    vel: Callable  # (npts, 2)
    p: Callable
    grad_vel: Callable  # (npts, 2, 2): d v_i / d x_j
    forcing: Callable  # (npts, 2)


def _waves(pts: np.ndarray, k: float = PI):
    """``sin(k x), cos(k x), sin(k y), cos(k y)`` at ``pts``."""
    x, y = k * pts[:, 0], k * pts[:, 1]
    return np.sin(x), np.cos(x), np.sin(y), np.cos(y)


def ch_manufactured(Pe: float, Cn: float) -> CHManufactured:
    """Manufactured advection-free Cahn-Hilliard problem on [0,1]^2.

    Continuous equation (matching the weak residual in
    :class:`repro.chns.ch_solver.CHSolver`):

        d phi/dt - (1/(Pe Cn)) div( m(phi) grad mu ) = f_phi
        mu = psi'(phi) - Cn^2 lap(phi)        (exact, no source)

    ``lap phi* = -2 pi^2 phi*``, so ``mu* = phi*^3 + a phi*`` with
    ``a = 2 pi^2 Cn^2 - 1``, ``grad mu* = (3 phi*^2 + a) grad phi*`` and
    ``div(m grad mu*) = -(phi/m)(3 phi^2 + a)|grad phi|^2
    + m (6 phi |grad phi|^2 - 2 pi^2 (3 phi^2 + a) phi)``.
    """
    a = 2.0 * PI**2 * Cn**2 - 1.0

    def phi(pts, t):
        sx, cx, sy, cy = _waves(pts)
        return 0.5 * cx * cy * np.cos(t)

    def mu(pts, t):
        f = phi(pts, t)
        return f**3 + a * f

    def grad_phi(pts, t):
        sx, cx, sy, cy = _waves(pts)
        return -0.5 * PI * np.cos(t) * np.stack([sx * cy, cx * sy], axis=1)

    def f_phi(pts, t):
        sx, cx, sy, cy = _waves(pts)
        f = phi(pts, t)
        g2 = np.sum(grad_phi(pts, t) ** 2, axis=1)
        m = np.sqrt(1.0 - f**2)
        dmu = 3.0 * f**2 + a  # d mu / d phi
        div = -(f / m) * dmu * g2 + m * (6.0 * f * g2 - 2.0 * PI**2 * dmu * f)
        return -0.5 * cx * cy * np.sin(t) - div / (Pe * Cn)

    return CHManufactured(phi=phi, mu=mu, grad_phi=grad_phi, f_phi=f_phi)


def ns_manufactured(Re: float, We: float) -> NSManufactured:
    """Manufactured single-phase NS + projection problem on [0,1]^2:
    ``u = pi sin^2(pi x) sin(2 pi y) cos(t)``,
    ``v = -pi sin(2 pi x) sin^2(pi y) cos(t)``."""

    def vel(pts, t):
        sx, cx, sy, cy = _waves(pts)
        s2x, _, s2y, _ = _waves(pts, 2 * PI)
        return PI * np.cos(t) * np.stack([sx**2 * s2y, -s2x * sy**2], axis=1)

    def p(pts, t):
        sx, cx, sy, cy = _waves(pts)
        return cx * cy * np.cos(t)

    def grad_vel(pts, t):
        sx, cx, sy, cy = _waves(pts)
        s2x, c2x, s2y, c2y = _waves(pts, 2 * PI)
        du = np.stack([s2x * s2y, 2.0 * sx**2 * c2y], axis=1)
        dv = np.stack([-2.0 * c2x * sy**2, -s2x * s2y], axis=1)
        return PI**2 * np.cos(t) * np.stack([du, dv], axis=1)

    def forcing(pts, t):
        sx, cx, sy, cy = _waves(pts)
        s2x, c2x, s2y, c2y = _waves(pts, 2 * PI)
        v = vel(pts, t)
        dv_dt = PI * np.sin(t) * np.stack([-sx**2 * s2y, s2x * sy**2], axis=1)
        adv = np.sum(grad_vel(pts, t) * v[:, None, :], axis=2)
        grad_p = -PI * np.cos(t) * np.stack([sx * cy, cx * sy], axis=1)
        lap_v = 2.0 * PI**3 * np.cos(t) * np.stack(
            [(2.0 * c2x - 1.0) * s2y, (1.0 - 2.0 * c2y) * s2x], axis=1
        )
        return dv_dt + adv + grad_p / We - lap_v / Re

    return NSManufactured(vel=vel, p=p, grad_vel=grad_vel, forcing=forcing)
