"""AMR remeshing driver: identification → multi-level refine/coarsen →
2:1 balance → inter-grid transfer.

This orchestrates the paper's per-timestep adaptation loop: the interface
region (``|phi| < delta_star``) is resolved at ``interface_level``; elements
flagged by the local-Cahn identifier get ``feature_level`` (deeper); pure
phases coarsen toward ``coarse_level``.  The identifier counts its erosion
widths at ``feature_level``, so it measures the same physical width whatever
mesh the run is on.  Refinement and coarsening may jump several levels at
once (Algorithms 5-6), after which balance is restored and all fields
transfer to the new grid in a single multi-level pass.  A cycle whose
balanced tree is the current one keeps the current mesh.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields as dc_fields
from typing import Dict, Optional

import numpy as np

from .. import obs
from ..core.identifier import IdentifierConfig, IdentifierResult, identify_local_cahn
from ..core.threshold import interface_elements, threshold_octree
from ..mesh.intergrid import transfer_node_centered
from ..mesh.mesh import Mesh
from ..octree.balance import balance
from ..octree.coarsen import coarsen
from ..octree.refine import refine


@dataclass
class RemeshConfig:
    coarse_level: int  # pure-phase resolution
    interface_level: int  # resolution of |phi| < delta_star
    feature_level: int  # resolution of identified key features
    delta_star: float = 0.95  # interface band threshold
    identifier: Optional[IdentifierConfig] = None  # None -> no local Cahn

    def __post_init__(self):
        if not (
            self.coarse_level <= self.interface_level <= self.feature_level
        ):
            raise ValueError("levels must satisfy coarse <= interface <= feature")

    # JSON round-trip: the declarative scenario registry (repro.scenarios)
    # stores refinement policies as plain dicts inside scenario configs.

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.identifier is not None:
            d["identifier"] = asdict(self.identifier)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RemeshConfig":
        from ..core.identifier import IdentifierConfig

        d = dict(d)
        known = {f.name for f in dc_fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown RemeshConfig keys: {sorted(unknown)}")
        ident = d.pop("identifier", None)
        if ident is not None:
            ident = IdentifierConfig(**ident)
        return cls(identifier=ident, **d)


@dataclass
class RemeshInfo:
    target_levels: np.ndarray
    n_refined: int
    n_coarsened: int
    identifier: Optional[IdentifierResult]
    level_histogram: np.ndarray
    unchanged: bool  # the new tree is the old one, leaf for leaf


def compute_target_levels(
    mesh: Mesh,
    phi: np.ndarray,
    cfg: RemeshConfig,
    identifier_result: Optional[IdentifierResult] = None,
) -> np.ndarray:
    """Per-element desired level from the phase field and detected features.

    Refinement happens only near the interface — even elements with reduced
    Cn stay coarse away from it (paper Sec. II-B3: padding does not trigger
    refinement).
    """
    ev = mesh.elem_gather(phi)
    near = np.any(np.abs(ev) < cfg.delta_star, axis=1)
    crossing = (ev.min(axis=1) < 0) & (ev.max(axis=1) > 0)
    interface = near | crossing
    target = np.full(mesh.n_elems, cfg.coarse_level, dtype=np.int64)
    target[interface] = cfg.interface_level
    if identifier_result is not None:
        target[interface & identifier_result.detected] = cfg.feature_level
    return target


def remesh(
    mesh: Mesh,
    fields: Dict[str, np.ndarray],
    cfg: RemeshConfig,
):
    """One adaptation cycle.  Returns ``(new_mesh, new_fields, info)``.

    ``fields`` maps names to DOF vectors ``(n_dofs,)`` on ``mesh``; the
    targets are computed from ``fields["phi"]``.  When the balanced tree is
    ``mesh``'s own (``info.unchanged``), ``new_mesh`` is ``mesh`` itself and
    ``new_fields`` are copies of ``fields``: no ``Mesh`` is built and
    nothing is transferred.
    """
    with obs.span("remesh"):
        phi = fields["phi"]
        with obs.span("remesh.identify"):
            ident = (
                identify_local_cahn(
                    mesh, phi, cfg.identifier, cfg.feature_level
                )
                if cfg.identifier is not None
                else None
            )
            targets = compute_target_levels(mesh, phi, cfg, ident)

        tree = mesh.tree
        # Multi-level refinement where targets exceed current levels.
        with obs.span("remesh.refine"):
            refined = refine(tree, np.maximum(tree.levels, targets))
        n_refined = len(refined) - len(tree)
        # Coarsening votes: map original targets onto the refined leaves.
        with obs.span("remesh.coarsen"):
            orig = tree.locate_points(refined.centers().astype(np.int64))
            votes = np.minimum(refined.levels, targets[orig])
            coarsened = coarsen(refined, votes)
        n_coarsened = len(refined) - len(coarsened)
        with obs.span("remesh.balance"):
            balanced = balance(coarsened)

        unchanged = balanced == tree

        if unchanged:
            # Transfer onto the same tree is the identity, bit for bit: the
            # mesh (with everything its memo holds) survives the cycle.
            new_mesh = mesh
            new_fields = {name: np.array(vec) for name, vec in fields.items()}
        else:
            with obs.span("remesh.transfer"):
                new_mesh = Mesh(balanced, check_balance=False)
                # one located, weighted pass for every field
                block = transfer_node_centered(
                    mesh, np.column_stack(list(fields.values())), new_mesh
                )
                new_fields = dict(zip(fields, block.T))
        hist = np.bincount(balanced.levels, minlength=cfg.feature_level + 1)
        info = RemeshInfo(
            target_levels=targets,
            n_refined=n_refined,
            n_coarsened=n_coarsened,
            identifier=ident,
            level_histogram=hist,
            unchanged=unchanged,
        )
    return new_mesh, new_fields, info


def level_fractions(mesh: Mesh) -> dict:
    """Element-count and volume fractions per level (paper Fig. 8)."""
    levels = mesh.tree.levels
    counts = np.bincount(levels)
    vols = np.zeros(len(counts))
    np.add.at(vols, levels, mesh.tree.volumes())
    total_v = vols.sum()
    return {
        "levels": np.arange(len(counts)),
        "element_fraction": counts / max(len(levels), 1),
        "volume_fraction": vols / total_v if total_v else vols,
        "counts": counts,
    }


def uniform_equivalent_points(mesh: Mesh) -> float:
    """Grid points of the uniform mesh at the finest level — the paper's
    "equivalent 35 trillion grid points" metric."""
    finest = int(mesh.tree.levels.max())
    return float((2**finest + 1)) ** mesh.dim
