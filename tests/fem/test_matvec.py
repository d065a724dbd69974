"""``apply_elemental`` (``tests/oracles.py``, the oracle of the
distributed MATVEC) pinned against the assembled matrix on uniform and
hanging-node meshes."""

import numpy as np
import pytest

from repro.fem.operators import mass_matrix, stiffness_matrix
from repro.fem.plan import get_plan
from repro.mesh.mesh import Mesh
from repro.octree.build import build_tree, uniform_tree

from ..oracles import apply_elemental


def random_mesh(seed, dim, max_level=4, p=0.45):
    rng = np.random.default_rng(seed)

    def pred(anchors, levels):
        return rng.random(len(levels)) < p

    return Mesh.from_tree(build_tree(dim, pred, max_level=max_level, min_level=1))


MESHES = [
    ("hanging2d", lambda: random_mesh(1, 2)),
    ("hanging3d", lambda: random_mesh(2, 3, max_level=3)),
    ("uniform2d", lambda: Mesh.from_tree(uniform_tree(2, 3))),
    ("single2d", lambda: Mesh.from_tree(uniform_tree(2, 0))),
]


def example_ke(mesh, seed=5):
    rng = np.random.default_rng(seed)
    return stiffness_matrix(mesh.elem_h(), mesh.dim) + mass_matrix(
        mesh.elem_h(), mesh.dim, 1.0 + rng.random(mesh.n_elems)
    )


@pytest.mark.parametrize("mesh_name,mk", MESHES, ids=[m[0] for m in MESHES])
def test_apply_elemental_matches_assembled_matrix(mesh_name, mk):
    mesh = mk()
    Ke = example_ke(mesh)
    A = get_plan(mesh).assemble(Ke)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(mesh.n_dofs)
    np.testing.assert_allclose(
        apply_elemental(mesh, Ke, u), A @ u, rtol=1e-12, atol=1e-12
    )

