"""Non-dimensional parameters and mixture properties of the CHNS model
(paper Sec. II-A, Eqs. 1-3).

All quantities follow the paper's normalization by the heavy phase (+):
``rho(phi) = ((rho_+ - rho_-)/(2 rho_+)) phi + (rho_+ + rho_-)/(2 rho_+)``
and similarly for viscosity, so ``rho(+1) = 1`` and ``rho(-1) =
rho_-/rho_+``.  The degenerate mobility is ``m(phi) = sqrt(1 - phi^2)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class PhaseQuad(NamedTuple):
    """The phase field and its mixture properties at the quadrature points
    (what :func:`repro.chns.forms.phase_at_quad` returns; all (n_elems, nq)
    except ``grad_phi_q`` (n_elems, nq, dim))."""

    phi_q: np.ndarray
    rho_q: np.ndarray  # rho_clamped(phi_q)
    inv_rho_q: np.ndarray
    eta_q: np.ndarray  # eta_clamped(phi_q)
    grad_phi_q: np.ndarray


@dataclass
class CHNSParams:
    """Peclet, Reynolds, Weber, Cahn, Froude + phase property ratios."""

    Re: float = 100.0  # u_r L_r / nu_r
    We: float = 1.0  # rho_r u_r^2 L_r / sigma
    Pe: float = 100.0  # u_r L_r^2 / (m_r sigma)
    Cn: float = 0.05  # eps / L_r (diffuse interface thickness)
    Fr: float = np.inf  # u_r^2 / (g L_r); inf = no gravity
    rho_plus: float = 1.0
    rho_minus: float = 0.1
    eta_plus: float = 1.0
    eta_minus: float = 0.1
    gravity_dir: tuple = (0.0, -1.0)

    def __post_init__(self):
        for name in ("Re", "We", "Pe", "Cn"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.rho_plus <= 0 or self.rho_minus <= 0:
            raise ValueError("densities must be positive")

    # ------------------------------------------------------------ mixtures

    def rho(self, phi: np.ndarray) -> np.ndarray:
        """Non-dimensional mixture density (1 at phi=+1)."""
        rp, rm = self.rho_plus, self.rho_minus
        return ((rp - rm) / (2 * rp)) * np.asarray(phi) + (rp + rm) / (2 * rp)

    def eta(self, phi: np.ndarray) -> np.ndarray:
        """Non-dimensional mixture viscosity (1 at phi=+1)."""
        ep, em = self.eta_plus, self.eta_minus
        return ((ep - em) / (2 * ep)) * np.asarray(phi) + (ep + em) / (2 * ep)

    def rho_clamped(self, phi: np.ndarray) -> np.ndarray:
        """Density evaluated on phi clipped to [-1, 1] and floored away from
        zero — bound violations at coarse resolution must not produce
        negative density (the failure mode the local-Cahn scheme targets)."""
        r = self.rho(np.clip(phi, -1.0, 1.0))
        floor = 0.1 * min(self.rho_minus / self.rho_plus, 1.0)
        return np.maximum(r, floor)

    def eta_clamped(self, phi: np.ndarray) -> np.ndarray:
        e = self.eta(np.clip(phi, -1.0, 1.0))
        floor = 0.1 * min(self.eta_minus / self.eta_plus, 1.0)
        return np.maximum(e, floor)

    def J_coeff(self) -> float:
        """Prefactor of the diffusive mass flux ``J_i`` (paper Eq. 1):
        ``(rho_- - rho_+) / (2 rho_+ Cn)``."""
        return (self.rho_minus - self.rho_plus) / (2 * self.rho_plus * self.Cn)

    def gravity_coeff(self) -> float:
        """1/Fr, zero when gravity is off."""
        return 0.0 if np.isinf(self.Fr) else 1.0 / self.Fr
