"""Legacy-VTK export of octree meshes and fields.

Writes ASCII VTK unstructured grids (quads in 2D, hexahedra in 3D) with node
and cell data — loadable by ParaView/VisIt, the tools used for figures like
the paper's jet snapshots.  The writer reorders corners from Morton order to
VTK's winding, handles hanging nodes by writing interpolated values, and is
deliberately dependency-free.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import numpy as np

from ..mesh.mesh import Mesh

#: Morton corner order -> VTK winding, per dimension.
_VTK_ORDER = {
    2: [0, 1, 3, 2],  # VTK_QUAD
    3: [0, 1, 3, 2, 4, 5, 7, 6],  # VTK_HEXAHEDRON
}
_VTK_CELL_TYPE = {2: 9, 3: 12}


def write_vtk(
    path: str,
    mesh: Mesh,
    point_data: Optional[Dict[str, np.ndarray]] = None,
    cell_data: Optional[Dict[str, np.ndarray]] = None,
    *,
    title: str = "repro octree mesh",
) -> str:
    """Write the mesh (+ DOF fields and per-element fields) as legacy VTK.

    ``point_data`` values are DOF vectors (length ``n_dofs``) or full node
    vectors (length ``n_nodes``); DOF vectors are expanded through the
    hanging-node interpolation so every written node carries a value.
    Returns the path written.
    """
    if not path.endswith(".vtk"):
        path = path + ".vtk"
    dim = mesh.dim
    coords = mesh.node_xy()
    n_nodes = mesh.n_nodes
    en = mesh.nodes.elem_nodes[:, _VTK_ORDER[dim]]
    nc = en.shape[1]

    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n_nodes} double",
    ]
    pts3 = np.zeros((n_nodes, 3))
    pts3[:, :dim] = coords
    lines.extend(" ".join(f"{v:.10g}" for v in p) for p in pts3)

    lines.append(f"CELLS {mesh.n_elems} {mesh.n_elems * (nc + 1)}")
    lines.extend(
        f"{nc} " + " ".join(str(int(i)) for i in row) for row in en
    )
    lines.append(f"CELL_TYPES {mesh.n_elems}")
    lines.extend([str(_VTK_CELL_TYPE[dim])] * mesh.n_elems)

    if point_data:
        lines.append(f"POINT_DATA {n_nodes}")
        for name, vec in point_data.items():
            vec = np.asarray(vec, dtype=np.float64)
            if len(vec) == mesh.n_dofs:
                vec = mesh.node_values(vec)
            elif len(vec) != n_nodes:
                raise ValueError(
                    f"point field '{name}' has length {len(vec)}; expected "
                    f"{mesh.n_dofs} (DOFs) or {n_nodes} (nodes)"
                )
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.10g}" for v in vec)

    if cell_data:
        lines.append(f"CELL_DATA {mesh.n_elems}")
        for name, vec in cell_data.items():
            vec = np.asarray(vec, dtype=np.float64)
            if len(vec) != mesh.n_elems:
                raise ValueError(
                    f"cell field '{name}' has length {len(vec)}; expected "
                    f"{mesh.n_elems}"
                )
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.10g}" for v in vec)

    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_time_series(
    directory: str,
    basename: str,
    step: int,
    mesh: Mesh,
    point_data: Optional[Dict[str, np.ndarray]] = None,
    cell_data: Optional[Dict[str, np.ndarray]] = None,
) -> str:
    """Write one snapshot of a time series (``basename_0007.vtk``)."""
    os.makedirs(directory, exist_ok=True)
    return write_vtk(
        os.path.join(directory, f"{basename}_{step:04d}"),
        mesh,
        point_data,
        cell_data,
        title=f"{basename} step {step}",
    )
