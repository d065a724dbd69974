"""Tests for the VTK writer."""

import numpy as np
import pytest

from repro.io.vtk import write_time_series, write_vtk
from repro.mesh.mesh import Mesh, mesh_from_field
from repro.octree.build import uniform_tree

from ..oracles import read_vtk_summary


def drop(x):
    return np.linalg.norm(x - 0.5, axis=-1) - 0.25


class TestWriteVtk:
    def test_structure_2d(self, tmp_path):
        m = Mesh.from_tree(uniform_tree(2, 3))
        phi = m.interpolate(lambda x: x[:, 0])
        p = write_vtk(
            str(tmp_path / "mesh"), m,
            point_data={"phi": phi},
            cell_data={"level": m.tree.levels.astype(float)},
        )
        s = read_vtk_summary(p)
        assert s["points"] == m.n_nodes
        assert s["cells"] == m.n_elems
        assert s["point_fields"] == ["phi"]
        assert s["cell_fields"] == ["level"]

    def test_structure_3d(self, tmp_path):
        m = Mesh.from_tree(uniform_tree(3, 2))
        p = write_vtk(str(tmp_path / "mesh3d"), m)
        s = read_vtk_summary(p)
        assert s["points"] == m.n_nodes
        assert s["cells"] == m.n_elems

    def test_adaptive_mesh_hanging_nodes_expanded(self, tmp_path):
        m = mesh_from_field(drop, 2, max_level=5, min_level=2, threshold=0.05)
        assert np.any(m.nodes.is_hanging)
        phi = m.interpolate(lambda x: 2 * x[:, 0] + x[:, 1])
        p = write_vtk(str(tmp_path / "adaptive"), m, point_data={"f": phi})
        # Every node (hanging included) received a value: count the scalars.
        lines = open(p).read().splitlines()
        i = lines.index("LOOKUP_TABLE default")
        vals = [float(v) for v in lines[i + 1 : i + 1 + m.n_nodes]]
        assert len(vals) == m.n_nodes
        # Linear field: value equals 2x + y at every written node.
        xy = m.node_xy()
        assert np.allclose(vals, 2 * xy[:, 0] + xy[:, 1], atol=1e-9)

    def test_vtk_winding_positive_area(self, tmp_path):
        """VTK quad winding must traverse the cell boundary (not Morton's
        Z pattern): the shoelace area of each written quad is positive."""
        m = Mesh.from_tree(uniform_tree(2, 2))
        p = write_vtk(str(tmp_path / "w"), m)
        lines = open(p).read().splitlines()
        pts_start = next(i for i, l in enumerate(lines) if l.startswith("POINTS"))
        pts = np.array(
            [list(map(float, lines[pts_start + 1 + i].split()))
             for i in range(m.n_nodes)]
        )[:, :2]
        cells_start = next(i for i, l in enumerate(lines) if l.startswith("CELLS"))
        for e in range(m.n_elems):
            conn = list(map(int, lines[cells_start + 1 + e].split()))[1:]
            poly = pts[conn]
            area = 0.5 * np.sum(
                poly[:, 0] * np.roll(poly[:, 1], -1)
                - np.roll(poly[:, 0], -1) * poly[:, 1]
            )
            assert area > 0

    def test_rejects_wrong_lengths(self, tmp_path):
        m = Mesh.from_tree(uniform_tree(2, 2))
        with pytest.raises(ValueError):
            write_vtk(str(tmp_path / "x"), m, point_data={"bad": np.ones(3)})
        with pytest.raises(ValueError):
            write_vtk(str(tmp_path / "y"), m, cell_data={"bad": np.ones(3)})

    def test_time_series_naming(self, tmp_path):
        m = Mesh.from_tree(uniform_tree(2, 1))
        p = write_time_series(str(tmp_path / "series"), "jet", 7, m)
        assert p.endswith("jet_0007.vtk")
        s = read_vtk_summary(p)
        assert s["cells"] == 4
