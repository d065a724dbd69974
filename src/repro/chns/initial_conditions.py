"""Initial phase-field configurations for the examples and benchmarks.

All profiles use the equilibrium tanh shape with interface thickness set by
the Cahn number; by the paper's convention phi = -1 in the immersed (light /
dispersed) phase and +1 in the bulk, but each helper takes an ``inside``
sign so either convention works.
"""

from __future__ import annotations

import numpy as np


def tanh_profile(signed_distance: np.ndarray, Cn: float, inside: float = -1.0):
    """Equilibrium diffuse-interface profile for a signed distance field
    (negative inside the feature)."""
    return -inside * np.tanh(np.asarray(signed_distance) / (np.sqrt(2.0) * Cn))


def drop(x: np.ndarray, center, radius: float, Cn: float, inside=-1.0):
    d = np.linalg.norm(np.asarray(x) - np.asarray(center), axis=-1) - radius
    return tanh_profile(d, Cn, inside)


def two_drops(x, c1, r1, c2, r2, Cn, inside=-1.0):
    """Two drops (e.g. a coalescence setup): union via min distance."""
    d1 = np.linalg.norm(np.asarray(x) - np.asarray(c1), axis=-1) - r1
    d2 = np.linalg.norm(np.asarray(x) - np.asarray(c2), axis=-1) - r2
    return tanh_profile(np.minimum(d1, d2), Cn, inside)


def jet_column(
    x,
    y0: float = 0.5,
    half_width: float = 0.08,
    length: float = 0.45,
    Cn: float = 0.02,
    perturb_amp: float = 0.0,
    perturb_k: float = 6.0,
    inside=-1.0,
):
    """Liquid jet entering from the left wall: a rounded-tip column with an
    optional sinusoidal surface perturbation that seeds primary atomization
    (paper Sec. IV)."""
    x = np.asarray(x)
    r = half_width * (
        1.0 + perturb_amp * np.sin(2 * np.pi * perturb_k * x[..., 0])
    )
    dy = np.abs(x[..., 1] - y0)
    # Inside the column while x < length; rounded cap beyond.
    d_body = dy - r
    d_cap = np.sqrt((x[..., 0] - length) ** 2 + dy**2) - half_width
    d = np.where(x[..., 0] <= length, d_body, d_cap)
    return tanh_profile(d, Cn, inside)


def rising_bubble(x, center=(0.5, 0.25), radius=0.15, Cn=0.02):
    """Light bubble (phi = -1 inside) in heavy fluid — with gravity it rises."""
    return drop(x, center, radius, Cn, inside=-1.0)


def rayleigh_taylor(
    x,
    y0: float = 0.5,
    amp: float = 0.05,
    k: float = 1.0,
    Cn: float = 0.02,
    inside=-1.0,
):
    """Heavy fluid (phi = +1) resting on light fluid below a perturbed
    interface ``y = y0 + amp cos(2 pi k x)`` — the classic Rayleigh-Taylor
    instability setup (gravity pulls the heavy phase down through the
    light one).  The last coordinate is the vertical axis; in 3D the
    perturbation is the product of cosines in the horizontal directions.
    """
    x = np.asarray(x)
    vert = x[..., -1]
    pert = np.cos(2 * np.pi * k * x[..., 0])
    if x.shape[-1] == 3:
        pert = pert * np.cos(2 * np.pi * k * x[..., 1])
    d = (y0 + amp * pert) - vert  # negative above the interface (heavy side)
    return tanh_profile(d, Cn, inside)


def spinodal(x, seed: int = 0, amp: float = 0.2, n_modes: int = 4, Cn=0.05):
    """Seeded small-amplitude perturbation around the mixed state phi = 0 —
    the classic spinodal-decomposition initial condition.  The field is a
    deterministic function of ``seed``: a superposition of ``n_modes``
    random Fourier modes per axis from ``np.random.default_rng(seed)``, so
    every backend and every restart sees bit-identical initial data.
    """
    x = np.asarray(x)
    dim = x.shape[-1]
    rng = np.random.default_rng(seed)
    out = np.zeros(x.shape[:-1])
    for _ in range(n_modes):
        kvec = rng.integers(1, 5, size=dim)
        phase = rng.uniform(0.0, 2 * np.pi)
        weight = rng.uniform(0.5, 1.0)
        arg = 2 * np.pi * np.tensordot(x, kvec.astype(float), axes=([-1], [0]))
        out = out + weight * np.cos(arg + phase)
    return np.clip(amp * out / n_modes, -0.9, 0.9)
