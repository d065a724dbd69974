"""LOCALCAHNIDENTIFIER (paper Algorithm 1): the end-to-end pipeline that
finds droplets/filaments whose scale approaches the diffuse-interface
thickness and returns the per-element local Cahn number.

Pipeline: threshold (Eq. 4) → level-aware erosion (Alg. 2) → extra dilation
(Alg. 2) → elemental mask (Alg. 3 / Eq. 6) → island removal + padding on the
mask (Alg. 4).  Complexity is O(N) per sweep — each sweep is one elemental
MATVEC pass — which is the basis of the Fig. 4 scaling claims.

Every sweep measures its width from one ``base_level``, the finest level the
run resolves; :func:`repro.amr.driver.remesh` passes
``RemeshConfig.feature_level``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mesh.mesh import Mesh
from .elemental_cahn import elemental_cahn, erode_dilate_cahn
from .erode_dilate import ErodeDilateStats, Stage, erode_dilate
from .threshold import threshold_octree


@dataclass
class IdentifierConfig:
    """Hyper-parameters of Algorithm 1 (the paper's defaults in brackets)."""

    delta: float = 0.8  # threshold [±0.8 by immersed-phase sign]
    n_erode: int = 2  # erosion sweeps
    n_extra_dilate: int = 3  # extra dilations beyond erosions [3-4]
    cn_fine: float = 0.5  # reduced Cahn for detected features (relative)
    cn_coarse: float = 1.0  # ambient Cahn (relative)
    cleanup_erode: int = 1  # Alg. 4 island-removal sweeps
    cleanup_dilate: int = 3  # Alg. 4 padding sweeps

    def __post_init__(self):
        if not self.cn_fine < self.cn_coarse:
            raise ValueError("cn_fine must be smaller than cn_coarse")


@dataclass
class IdentifierResult:
    elem_cn: np.ndarray  # per-element Cahn number
    bw_o: np.ndarray  # thresholded nodal vector (±1, DOFs)
    bw_d: np.ndarray  # after erosion + dilation
    detected: np.ndarray  # bool mask of reduced-Cn elements
    stats: ErodeDilateStats


def identify_local_cahn(
    mesh: Mesh, phi: np.ndarray, config: IdentifierConfig, base_level: int
) -> IdentifierResult:
    """Run Algorithm 1 on a phase-field DOF vector.

    ``phi`` follows the CHNS convention (immersed phase toward -1 or +1);
    choose ``config.delta`` accordingly: with the immersed phase at -1, use
    ``delta = -0.8`` so thresholding marks it +1.  ``base_level`` is the
    level the erosion widths are counted at; it must be at least the finest
    level of ``mesh``.
    """
    stats = ErodeDilateStats()
    bw_o = threshold_octree(phi, config.delta)
    bw_e = erode_dilate(
        mesh, bw_o, Stage.EROSION, config.n_erode, base_level, stats
    )
    bw_d = erode_dilate(
        mesh,
        bw_e,
        Stage.DILATION,
        config.n_erode + config.n_extra_dilate,
        base_level,
        stats,
    )
    detected = erode_dilate_cahn(
        mesh,
        elemental_cahn(mesh, bw_o, bw_d),
        base_level,
        n_erode=config.cleanup_erode,
        n_dilate=config.cleanup_dilate,
    )
    return IdentifierResult(
        elem_cn=np.where(detected, config.cn_fine, config.cn_coarse),
        bw_o=bw_o,
        bw_d=bw_d,
        detected=detected,
        stats=stats,
    )
