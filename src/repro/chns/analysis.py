"""Post-processing analysis for multiphase runs.

The paper defers "the more detailed physics discussion" to a future paper;
this module provides the measurements that discussion needs: per-droplet
statistics (count, volumes, centroids, Sauter mean diameter — the standard
atomization spray metric), interface measure, and phase volumes.  Droplets
are identified with the connected-component labeler; interface measure uses
the diffuse-interface functional ``(3/(2*sqrt(2)*Cn)) ∫ Cn^2|∇phi|^2 + psi``
whose value approximates the sharp-interface area (length in 2D).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.connected_components import label_components
from ..fem.operators import gradient_at_quad, value_at_quad
from ..mesh.mesh import Mesh
from .forms import integrate
from .free_energy import psi


@dataclass
class DropletStats:
    count: int
    volumes: np.ndarray  # (count,)
    centroids: np.ndarray  # (count, dim)
    equivalent_diameters: np.ndarray  # (count,)
    sauter_mean_diameter: float  # D32, the atomization headline number
    largest_fraction: float  # volume share of the biggest structure


def phase_volume(mesh: Mesh, phi: np.ndarray, *, immersed_sign: float = -1.0):
    """Volume of the immersed phase, ``∫ (1 - sign*phi)/2``."""
    vq = value_at_quad(mesh.elem_gather(phi), mesh.dim)
    # Fraction of the immersed phase: 1 where phi == immersed_sign, 0 at the
    # other well -> (1 + sign*phi)/2.
    frac = 0.5 * (1.0 + immersed_sign * vq)
    return integrate(mesh, np.clip(frac, 0.0, 1.0))


def interface_measure(mesh: Mesh, phi: np.ndarray, Cn: float) -> float:
    """Sharp-interface area/length estimate from the diffuse profile.

    For the equilibrium tanh profile, ``∫ (Cn^2/2)|∇phi|^2 + psi(phi)``
    equals ``(2*sqrt(2)/3) * Cn * |interface|``; inverting gives the measure.
    """
    ev = mesh.elem_gather(phi)
    vq = value_at_quad(ev, mesh.dim)
    gq = gradient_at_quad(ev, mesh.elem_h(), mesh.dim)
    total = integrate(mesh, 0.5 * Cn**2 * np.sum(gq**2, axis=-1) + psi(vq))
    return total / (2.0 * np.sqrt(2.0) / 3.0 * Cn)


def droplet_statistics(
    mesh: Mesh, phi: np.ndarray, *, delta: float = -0.8
) -> DropletStats:
    """Per-droplet census of the immersed phase."""
    labels, n = label_components(mesh, phi, delta)
    dim = mesh.dim
    if n == 0:
        z = np.zeros(0)
        return DropletStats(0, z, np.zeros((0, dim)), z, 0.0, 0.0)
    vol_e = mesh.elem_h() ** dim
    centers = mesh.elem_centers()
    sel = labels >= 0
    vols = np.zeros(n)
    np.add.at(vols, labels[sel], vol_e[sel])
    cents = np.zeros((n, dim))
    for d in range(dim):
        acc = np.zeros(n)
        np.add.at(acc, labels[sel], vol_e[sel] * centers[sel, d])
        cents[:, d] = acc / vols
    if dim == 2:
        diam = 2.0 * np.sqrt(vols / np.pi)
    else:
        diam = (6.0 * vols / np.pi) ** (1.0 / 3.0)
    d32 = float((diam**3).sum() / (diam**2).sum())
    return DropletStats(
        count=n,
        volumes=vols,
        centroids=cents,
        equivalent_diameters=diam,
        sauter_mean_diameter=d32,
        largest_fraction=float(vols.max() / vols.sum()),
    )


def breakup_detected(
    prev: DropletStats, curr: DropletStats, *, min_volume: float = 0.0
) -> bool:
    """Did the droplet count (above a volume floor) increase — i.e. did the
    jet/ligament break up between two snapshots?"""
    n_prev = int((prev.volumes > min_volume).sum())
    n_curr = int((curr.volumes > min_volume).sum())
    return n_curr > n_prev
