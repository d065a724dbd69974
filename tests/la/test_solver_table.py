"""The solver table: which solver each block runs, by mesh and lifetime.

``repro.la.factors.SOLVERS`` is the one home of every block's size gate;
``may_factor`` and ``pp_gmg`` read it for the NS, PP and VU solvers.  The
ladder below pins the table's picks against the rules those solvers wrote
inline before the table existed, with one deliberate change since: VU's cap
is per dimension (8,192 DOFs in 2D, 2,048 in 3D), no longer the NS cap.
Counts and shapes only, no timing.
"""

import numpy as np

from repro.la import factors
from repro.la.factors import may_factor, pp_gmg
from repro.mesh.mesh import Mesh, mesh_from_field
from repro.octree.build import uniform_tree
from repro.scenarios.registry import build


def patch_table(monkeypatch, **rows):
    """Patch the solver table once: each keyword names a block and the row
    entries that replace its own, e.g. ``pp={"lu": 0}``."""
    table = {blk: {**row, **rows.get(blk, {})}
             for blk, row in factors.SOLVERS.items()}
    monkeypatch.setattr(factors, "SOLVERS", table)


def cavity_mesh():
    """The ``cavity2d`` benchmark mesh: levels 5-7 graded to the walls,
    7,265 DOFs, past the NS cap and the GMG crossover, within PP's and
    VU's 2D caps."""
    return mesh_from_field(
        lambda x: np.minimum(x, 1.0 - x).min(axis=-1) / 0.1,
        2, max_level=7, min_level=5, threshold=1.0,
    )


def bubble_mesh():
    """The ``bubble2d`` benchmark mesh (full ``rising_bubble_2d`` at the
    seed-0 radius): 2D levels 3-5 with hanging nodes."""
    cfg = build("rising_bubble_2d")
    cfg.ic.params["radius"] = 0.143
    dom = cfg.domain
    return mesh_from_field(cfg.build_ic(), dom.dim, max_level=dom.max_level,
                           min_level=dom.min_level, threshold=dom.threshold)


def uniform(dim, level):
    return Mesh.from_tree(uniform_tree(dim, level))


#: label, mesh factory, DOFs; what NS / PP / VU run on a warm middle
#: block; PP's CG preconditioner wherever it runs CG
LADDER = [
    ("2D uniform L4", lambda: uniform(2, 4), 289,
     ("held", "held", "direct"), "jacobi"),
    ("bubble2d", bubble_mesh, 427, ("held", "held", "direct"), "jacobi"),
    ("2D uniform L6", lambda: uniform(2, 6), 4225,
     ("jacobi", "held", "direct"), "jacobi"),
    ("cavity2d", cavity_mesh, 7265, ("jacobi", "held", "direct"), "gmg"),
    ("2D uniform L7", lambda: uniform(2, 7), 16641,
     ("jacobi", "gmg", "jacobi"), "gmg"),
    ("3D uniform L3", lambda: uniform(3, 3), 729,
     ("held", "held", "direct"), "jacobi"),
    ("3D uniform L4", lambda: uniform(3, 4), 4913,
     ("jacobi", "jacobi", "jacobi"), "jacobi"),
]


def parent_rules(mesh, blocks_run, last_block):
    """The inline predicates of ``NSSolver``, ``PPSolver`` and ``VUSolver``
    before the table, constants included, and PP's GMG switch; with one
    deliberate table change since: VU takes its own per-dimension cap (the
    2D cap of PP) instead of the NS cap, so 2D meshes up to 8,192 DOFs
    solve VU directly (A2 in EXPERIMENTS.md)."""
    lu_max_dofs = 2048
    pp_lu_max_dofs = {2: 8192, 3: lu_max_dofs}
    vu_lu_max_dofs = {2: 8192, 3: lu_max_dofs}
    gmg_min_dofs_per_axis = 75.0
    live = blocks_run > 0 and not last_block
    return {
        "ns": live and mesh.n_dofs <= lu_max_dofs,
        "pp": live and mesh.n_dofs <= pp_lu_max_dofs[mesh.dim],
        "vu": live and mesh.n_dofs <= vu_lu_max_dofs[mesh.dim],
        "gmg": mesh.n_dofs ** (1.0 / mesh.dim) >= gmg_min_dofs_per_axis,
    }


def picks(mesh):
    """What the table has NS, PP and VU run on a warm middle block."""
    def held(blk):
        return may_factor(blk, mesh, blocks_run=1, last_block=False)

    return (
        "held" if held("ns") else "jacobi",
        "held" if held("pp") else ("gmg" if pp_gmg(mesh) else "jacobi"),
        "direct" if held("vu") else "jacobi",
    )


def test_table_picks_the_parent_rules():
    for label, make, n_dofs, want, pp_krylov in LADDER:
        mesh = make()
        assert mesh.n_dofs == n_dofs, label
        assert picks(mesh) == want, label
        assert ("gmg" if pp_gmg(mesh) else "jacobi") == pp_krylov, label
        assert may_factor("ch", mesh, blocks_run=1, last_block=False)
        for blocks_run in (0, 1, 5):
            for last_block in (False, True):
                got = {blk: may_factor(blk, mesh, blocks_run=blocks_run,
                                       last_block=last_block)
                       for blk in ("ns", "pp", "vu")}
                got["gmg"] = pp_gmg(mesh)
                assert got == parent_rules(mesh, blocks_run, last_block), (
                    label, blocks_run, last_block)
