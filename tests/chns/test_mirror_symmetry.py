"""The CHNS step keeps mirror symmetry about ``x = 1/2``.

Hysing et al.'s (2009) rising-bubble case 1 runs in a 1 x 2 box.  Mirrored
across its side wall ``x = 1`` it is a 2 x 2 box holding two bubbles, and
scaled by 1/2 that box is the unit square, with the mirror plane at
``x = 1/2`` (DESIGN.md section 3).  The mapping holds only if the scheme
keeps a symmetric state symmetric: the tree equals its mirror, and under
the DOF mirror map ``phi`` and ``p`` are even while ``v_x`` is odd and
``v_y`` even.

Tolerances: the NS and PP solves stop at a relative residual of 1e-9 and
the CH Newton solve at 1e-9 of the iterate's norm, so an asymmetry is
only what a solve leaves behind.  ``v`` and ``p`` are held to 100 times
the flow solves' tolerance, relative to the field's largest value, and
``phi`` to the Newton tolerance.
"""

import numpy as np

from repro.chns.initial_conditions import two_drops
from repro.chns.params import CHNSParams
from repro.chns.timestepper import CHNSTimeStepper, no_slip_bc
from repro.mesh.mesh import mesh_from_field
from repro.octree import morton
from repro.octree.tree import Octree

FLOW_TOL = 100 * 1e-9  # 100 x the NS / PP relative solve tolerance
PHI_TOL = 1e-9  # the CH Newton tolerance


def mirror_dofs(xy: np.ndarray) -> np.ndarray:
    """``m[i]``: the DOF at ``(1 - x, y)`` of DOF ``i`` at ``(x, y)`` (the
    coordinates are dyadic, so ``1 - x`` is exact)."""
    index = {(x, y): i for i, (x, y) in enumerate(xy)}
    return np.array([index[(1.0 - x, y)] for x, y in xy])


def asymmetry(u: np.ndarray, mirror: np.ndarray, sign: float) -> float:
    """Largest ``|u - sign * u o mirror|`` relative to ``max |u|``."""
    return float(np.abs(u - sign * u[mirror]).max() / np.abs(u).max())


def test_two_light_drops_stay_mirror_symmetric():
    prm = CHNSParams(Re=35.0, We=1.0, Pe=100.0, Cn=0.06, Fr=1.0,
                     rho_minus=0.1, eta_minus=0.1)

    def ic(x):
        return two_drops(x, (0.25, 0.3), 0.12, (0.75, 0.3), 0.12, prm.Cn)

    mesh = mesh_from_field(ic, 2, max_level=5, min_level=3, threshold=0.95)
    tree = mesh.tree
    assert len(set(tree.levels.tolist())) > 1  # graded: hanging nodes too
    mirrored = tree.anchors.copy()
    mirrored[:, 0] = (1 << morton.MAX_DEPTH) - mirrored[:, 0] - tree.sizes()
    assert Octree(mirrored, tree.levels, 2) == tree

    mirror = mirror_dofs(mesh.dof_xy())
    ts = CHNSTimeStepper(mesh, prm, velocity_bc=no_slip_bc)
    ts.initialize(ic)
    for _ in range(4):
        ts.step(1e-3)
        assert np.abs(ts.vel).max() > 1e-3  # the flow is not trivially 0
        assert asymmetry(ts.phi, mirror, 1.0) < PHI_TOL
        assert asymmetry(ts.p, mirror, 1.0) < FLOW_TOL
        assert asymmetry(ts.vel[:, 0], mirror, -1.0) < FLOW_TOL
        assert asymmetry(ts.vel[:, 1], mirror, 1.0) < FLOW_TOL
