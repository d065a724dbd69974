"""Double-well free energy and degenerate mobility for Cahn-Hilliard."""

from __future__ import annotations

import numpy as np

from ..fem.operators import gradient_at_quad, value_at_quad
from ..mesh.mesh import Mesh
from .forms import integrate

_MOBILITY_FLOOR = 1e-8


def psi(phi: np.ndarray) -> np.ndarray:
    """Double-well potential ``(phi^2 - 1)^2 / 4`` with minima at ±1."""
    p2 = np.asarray(phi) ** 2
    return 0.25 * (p2 - 1.0) ** 2


def psi_prime(phi: np.ndarray) -> np.ndarray:
    """``psi'(phi) = phi^3 - phi`` (enters the chemical potential)."""
    phi = np.asarray(phi)
    return phi * phi * phi - phi


def psi_double_prime(phi: np.ndarray) -> np.ndarray:
    """``psi''(phi) = 3 phi^2 - 1`` (Newton Jacobian of the CH block)."""
    return 3.0 * np.asarray(phi) ** 2 - 1.0


def mobility(phi: np.ndarray) -> np.ndarray:
    """Degenerate mobility ``m(phi) = sqrt(1 - phi^2)`` (paper Sec. II-A),
    clamped: discrete over/undershoots must not make it imaginary."""
    return np.sqrt(np.maximum(1.0 - np.asarray(phi) ** 2, _MOBILITY_FLOOR))


def mobility_prime(phi: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Exact derivative of the clamped :func:`mobility`, given its values
    ``m = mobility(phi)`` (no second ``sqrt``): ``-phi / m`` off the clamp,
    0 where ``_MOBILITY_FLOOR`` is active (Newton Jacobian of the CH
    block)."""
    return np.where(m > np.sqrt(_MOBILITY_FLOOR), -np.asarray(phi) / m, 0.0)


def ginzburg_landau_energy(mesh: Mesh, phi: np.ndarray, Cn: float) -> float:
    """``E[phi] = ∫ psi(phi) + (Cn^2/2) |grad phi|^2`` — the Lyapunov
    functional our semi-implicit CH discretization should not increase for
    pure Cahn-Hilliard dynamics (tested)."""
    ev = mesh.elem_gather(phi)
    vq = value_at_quad(ev, mesh.dim)
    gq = gradient_at_quad(ev, mesh.elem_h(), mesh.dim)
    return integrate(mesh, psi(vq) + 0.5 * Cn**2 * np.sum(gq**2, axis=-1))


def total_mass(mesh: Mesh, phi: np.ndarray) -> float:
    """``∫ phi`` — conserved by Cahn-Hilliard with no-flux boundaries."""
    return integrate(mesh, value_at_quad(mesh.elem_gather(phi), mesh.dim))
