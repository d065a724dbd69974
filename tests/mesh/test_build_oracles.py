"""Mesh construction against its earlier, exhaustive forms, bit for bit.

Three build steps search only where the answer is open: the node table
point-locates only the nodes whose corner count leaves hangingness open,
the assembly plan expands only the ``Ke`` slots that touch a hanging node
and sorts once, and the tree build asks its predicate only about octants
between ``min_level`` and ``max_level``.  The references below are those
functions as they were before, kept verbatim: every node probed, every
slot pushed through ``P`` and sorted twice, the predicate asked about every
octant.  The fast forms must give the same arrays, values and dtypes, on
uniform and graded meshes in 2D and 3D, on unbalanced trees whose
hanging nodes chain, on a Morton slice (an incomplete tree, as a partition
chunk is), on every benchmark
workload's initial mesh and on a remeshed ``jet2d_amr`` mesh.  Counts and arrays only, no timing.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.chns.initial_conditions import drop
from repro.fem.basis import shape_functions
from repro.fem.plan import AssemblyPlan
from repro.mesh import nodes as nodes_module
from repro.mesh.mesh import Mesh, mesh_from_field
from repro.mesh.nodes import NodeTable, enumerate_nodes, pack_points, unpack_points
from repro.octree import morton
from repro.octree.balance import balance
from repro.octree.build import build_tree, tree_from_function, uniform_tree
from repro.octree.neighbors import balance_stencil
from repro.octree.tree import Octree
from repro.scenarios import ScenarioConfig

ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------- references


def reference_enumerate_nodes(tree: Octree) -> NodeTable:
    """Enumerate CG nodes of a 2:1-balanced linear octree."""
    dim = tree.dim
    nc = 1 << dim
    corners = tree.corners()  # (N, nc, dim)
    packed = pack_points(corners, dim)
    uniq, inv = np.unique(packed, return_inverse=True)
    elem_nodes = inv.reshape(len(tree), nc).astype(np.int64)
    coords = unpack_points(uniq, dim)
    n_nodes = len(coords)

    # --- find touching leaves via probe points p + off, off in {0,-1}^dim ---
    probes = coords[:, None, :] - morton.corner_bits(dim)  # (M, nc, dim)
    bound = 1 << morton.MAX_DEPTH
    valid = np.all((probes >= 0) & (probes < bound), axis=-1)
    touch = np.full((n_nodes, nc), -1, dtype=np.int64)
    flat_ok = valid.reshape(-1)
    flat_pts = probes.reshape(-1, dim)
    loc = np.full(len(flat_pts), -1, dtype=np.int64)
    if np.any(flat_ok):
        loc[flat_ok] = tree.locate_points(flat_pts[flat_ok])
    touch = loc.reshape(n_nodes, nc)

    # --- hangingness: p must be a corner of every touching leaf -------------
    t_idx = np.where(touch >= 0, touch, 0)
    t_anchor = tree.anchors[t_idx]  # (M, nc, dim)
    t_size = tree.sizes()[t_idx]  # (M, nc)
    rel = coords[:, None, :] - t_anchor
    is_corner = np.all(
        (rel == 0) | (rel == t_size[..., None]), axis=-1
    )  # (M, nc)
    non_corner = (touch >= 0) & ~is_corner
    is_hanging = np.any(non_corner, axis=1)

    # --- interpolation parents for hanging nodes ----------------------------
    # Use the coarsest touching leaf for which the node is interior to a
    # face/edge; multilinear evaluation in that element gives the weights.
    dof_of_node = np.full(n_nodes, -1, dtype=np.int64)
    dof_of_node[~is_hanging] = np.arange(int((~is_hanging).sum()))
    node_of_dof = np.nonzero(~is_hanging)[0].astype(np.int64)
    n_dofs = len(node_of_dof)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    # Non-hanging rows: identity.
    nh = ~is_hanging
    rows.append(np.nonzero(nh)[0])
    cols.append(dof_of_node[nh])
    vals.append(np.ones(n_dofs))

    h_idx = np.nonzero(is_hanging)[0]
    if len(h_idx):
        # Pick per hanging node the touching leaf with minimum level among
        # the non-corner ones.
        lev = np.where(non_corner[h_idx], tree.levels[t_idx[h_idx]], 10**9)
        pick = np.argmin(lev, axis=1)
        leaf = touch[h_idx, pick]
        a = tree.anchors[leaf]
        s = tree.sizes()[leaf].astype(np.float64)
        xi = (coords[h_idx] - a) / s[:, None]  # in [0,1]^dim
        # Multilinear weights over the leaf's 2**dim corners.
        w = shape_functions(xi, dim)
        # Corner node ids of the chosen leaves.
        corner_nodes = elem_nodes[leaf]  # works because leaf is an element idx
        keep = w > 1e-12
        r = np.repeat(h_idx, keep.sum(axis=1))
        c_nodes = corner_nodes[keep]
        weights = w[keep]
        # Resolve chains: parents that are themselves hanging get substituted
        # until only DOF-carrying nodes remain (bounded by MAX_DEPTH).
        entries = {"r": r, "n": c_nodes, "w": weights}
        for _ in range(morton.MAX_DEPTH + 1):
            hang_par = is_hanging[entries["n"]]
            if not np.any(hang_par):
                break
            # Keep resolved entries; expand hanging parents one level.
            keep_r = entries["r"][~hang_par]
            keep_n = entries["n"][~hang_par]
            keep_w = entries["w"][~hang_par]
            er = entries["r"][hang_par]
            en = entries["n"][hang_par]
            ew = entries["w"][hang_par]
            # Each hanging parent en has its own first-level expansion,
            # recorded in (r, c_nodes, weights) rows where r == en.
            order = np.argsort(r, kind="stable")
            rs, ns, ws = r[order], c_nodes[order], weights[order]
            starts = np.searchsorted(rs, en, side="left")
            ends = np.searchsorted(rs, en, side="right")
            counts = ends - starts
            new_r = np.repeat(er, counts)
            new_w_scale = np.repeat(ew, counts)
            gather = np.concatenate(
                [np.arange(s0, e0) for s0, e0 in zip(starts, ends)]
            ) if len(en) else np.zeros(0, np.int64)
            new_n = ns[gather]
            new_w = new_w_scale * ws[gather]
            entries = {
                "r": np.concatenate([keep_r, new_r]),
                "n": np.concatenate([keep_n, new_n]),
                "w": np.concatenate([keep_w, new_w]),
            }
        else:  # pragma: no cover - would indicate an unbalanced tree
            raise RuntimeError("hanging-node chain did not resolve")
        rows.append(entries["r"])
        cols.append(dof_of_node[entries["n"]])
        vals.append(entries["w"])

    P = sp.csr_matrix(
        (
            np.concatenate(vals),
            (np.concatenate(rows), np.concatenate(cols)),
        ),
        shape=(n_nodes, n_dofs),
    )
    P.sum_duplicates()

    return NodeTable(
        coords=coords,
        elem_nodes=elem_nodes,
        is_hanging=is_hanging,
        dof_of_node=dof_of_node,
        node_of_dof=node_of_dof,
        P=P,
    )


def _expand_ragged(indptr: np.ndarray, sel: np.ndarray):
    """Flattened CSR-row expansion: for each ``k``, the data offsets of row
    ``sel[k]`` of a CSR matrix.  Returns ``(offsets, group)`` where ``group``
    maps each expanded slot back to its ``k``."""
    cnt = indptr[sel + 1] - indptr[sel]
    total = int(cnt.sum())
    group = np.repeat(np.arange(len(sel), dtype=np.int64), cnt)
    starts = np.repeat(indptr[sel], cnt)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(cnt) - cnt, cnt
    )
    return starts + within, group


def reference_plan_layout(mesh: Mesh):
    """``AssemblyPlan._build``'s expansion and sort: ``(S, indices,
    indptr)``."""
    n_dofs = int(mesh.n_dofs)
    en = mesh.nodes.elem_nodes
    n_elems, nc = en.shape

    # Node-wise COO pattern of the elemental scatter (reference path's
    # rows/cols), one entry per raveled Ke slot.
    rows = np.repeat(en, nc, axis=1).ravel()
    cols = np.tile(en, (1, nc)).ravel()

    # Expand each COO entry through the touching rows of P:
    #   A[a, b] += Ke_k * P[rows_k, a] * P[cols_k, b].
    P = mesh.nodes.P.tocsr()
    r_off, k1 = _expand_ragged(P.indptr, rows)  # over row-P entries
    c_off, s1 = _expand_ragged(P.indptr, cols[k1])  # then col-P entries
    a = P.indices[r_off[s1]].astype(np.int64)
    b = P.indices[c_off].astype(np.int64)
    weight = P.data[r_off[s1]] * P.data[c_off]
    src = k1[s1]  # raveled Ke slot feeding each expanded entry

    # Final CSR layout: sort expanded entries by (a, b), dedupe.
    key = a * np.int64(n_dofs) + b
    uniq, slot = np.unique(key, return_inverse=True)
    order = np.argsort(slot, kind="stable")
    nnz = len(uniq)
    S = sp.csr_matrix(
        (
            weight[order],
            src[order],
            np.concatenate(([0], np.cumsum(np.bincount(slot)))),
        ),
        shape=(nnz, n_elems * nc * nc),
    )

    indices = (uniq % n_dofs).astype(np.int64)
    counts = np.bincount(
        (uniq // n_dofs).astype(np.int64), minlength=n_dofs
    )
    indptr = np.zeros(n_dofs + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    proto = sp.csr_matrix(
        (np.zeros(nnz), indices, indptr),
        shape=(n_dofs, n_dofs),
    )
    return S, proto.indices, proto.indptr


def reference_build_tree(
    dim: int,
    refine,
    *,
    max_level: int,
    min_level: int = 0,
) -> Octree:
    """Grow a linear octree from the root.

    Every octant below ``min_level`` is always subdivided; octants at
    ``max_level`` never are.  ``refine`` decides everything in between.
    """
    if not 0 <= min_level <= max_level <= morton.MAX_DEPTH:
        raise ValueError("bad level bounds")
    anchors = np.zeros((1, dim), dtype=np.int64)
    levels = np.zeros(1, dtype=np.int64)
    done_a, done_l = [], []
    while len(levels):
        want = refine(anchors, levels) if len(levels) else np.zeros(0, bool)
        want = np.asarray(want, dtype=bool) | (levels < min_level)
        want &= levels < max_level
        if np.any(~want):
            done_a.append(anchors[~want])
            done_l.append(levels[~want])
        if not np.any(want):
            break
        ca, cl = morton.children(anchors[want], levels[want], dim)
        anchors = ca.reshape(-1, dim)
        levels = cl.reshape(-1)
    if done_a:
        out = Octree(np.concatenate(done_a), np.concatenate(done_l), dim)
    else:
        out = Octree.empty(dim)
    return out


# ----------------------------------------------------------------- meshes


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perf_workloads", ROOT / "benchmarks" / "perf" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_mesh(name: str) -> Mesh:
    """The seed-0 initial mesh of a stepping benchmark workload."""
    wl = _workloads()
    spec = wl.generate(name, 0)
    cfg = ScenarioConfig.from_dict(spec["scenario"])
    if spec["kind"] == "cavity":
        band = float(spec["wall_band"])
        return wl._initial_mesh(cfg, lambda x: wl._wall_distance(x, band))
    return wl._initial_mesh(cfg, cfg.build_ic())


def batch_meshes() -> list:
    """The initial meshes of the ``batch2d`` workload's scenarios."""
    spec = _workloads().generate("batch2d", 0)
    out = []
    for d in spec["scenarios"]:
        cfg = ScenarioConfig.from_dict(d)
        dom = cfg.domain
        out.append(mesh_from_field(
            cfg.build_ic(), dom.dim, max_level=dom.max_level,
            min_level=dom.min_level, threshold=dom.threshold,
        ))
    return out


def remeshed_jet() -> Mesh:
    """The ``jet2d_amr`` workload's mesh after the first of its per-step
    remesh cycles that changes the tree."""
    sim = _workloads().make_sim(_workloads().generate("jet2d_amr", 0))
    sim.setup()
    first = sim.mesh
    for _ in range(7):
        sim.step()
        if sim.mesh is not first:
            assert sim.mesh.tree != first.tree
            return sim.mesh
    raise AssertionError("no remesh cycle changed the tree")


def graded(dim: int) -> Mesh:
    """A drop refined to level 5 (2D) / 4 (3D) inside a level-2 mesh."""
    c = (0.4,) * dim
    return mesh_from_field(lambda x: drop(x, c, 0.25, 0.05), dim,
                           max_level=5 if dim == 2 else 4, min_level=2,
                           threshold=0.9)


def spike(dim: int, level: int) -> Octree:
    """A tree refined from level 1 to ``level`` around one point and not
    balanced: a hanging node's parents hang on a coarser leaf in turn.  A
    2:1-balanced tree has no such chain (the fine leaves at a hanging node
    also touch its parents), so the chain resolution runs only here."""
    p = (np.array([0.3, 0.45, 0.6][:dim]) * (1 << morton.MAX_DEPTH)).astype(
        np.int64
    )

    def contains_p(anchors, levels):
        size = morton.cell_size(levels)[:, None]
        return np.all((anchors <= p) & (p < anchors + size), axis=1)

    return build_tree(dim, contains_p, max_level=level, min_level=1)


def morton_slice(tree: Octree, start: int, stop: int) -> Octree:
    """Leaves ``start:stop`` of ``tree``: an incomplete tree, as the SFC
    partition chunk a rank holds is."""
    return Octree(tree.anchors[start:stop], tree.levels[start:stop], tree.dim,
                  presorted=True)


def carved(dim: int) -> Octree:
    """A balanced incomplete tree: the middle of a graded drop's balanced
    tree, carved out along the Morton curve so that both ends cut a sibling
    family."""
    t = balance(tree_from_function(
        dim, lambda x: drop(x, (0.3,) * dim, 0.15, 0.04),
        max_level=5 if dim == 2 else 4, min_level=2, threshold=0.9))
    s = balance_stencil(t)
    family = s.first[s.span == 1 << dim]  # each complete family's first leaf
    return morton_slice(t, family[len(family) // 4] + 1,
                        family[len(family) // 2] + 1)


MESHES = {
    "uniform_2d": lambda: Mesh.from_tree(uniform_tree(2, 4)),
    "uniform_3d": lambda: Mesh.from_tree(uniform_tree(3, 2)),
    "graded_2d": lambda: graded(2),
    "graded_3d": lambda: graded(3),
    "bubble2d": lambda: workload_mesh("bubble2d"),
    "spinodal2d": lambda: workload_mesh("spinodal2d"),
    "cavity2d": lambda: workload_mesh("cavity2d"),
    "bubble3d": lambda: workload_mesh("bubble3d"),
    "jet2d_amr": lambda: workload_mesh("jet2d_amr"),
    "jet2d_amr_remeshed": remeshed_jet,
}


def _same(x: np.ndarray, y: np.ndarray) -> None:
    assert x.dtype == y.dtype
    assert np.array_equal(x, y)


def _same_csr(A: sp.csr_matrix, B: sp.csr_matrix) -> None:
    assert A.shape == B.shape
    for attr in ("data", "indices", "indptr"):
        _same(getattr(A, attr), getattr(B, attr))


def _same_table(got: NodeTable, ref: NodeTable) -> None:
    for attr in ("coords", "elem_nodes", "is_hanging", "dof_of_node",
                 "node_of_dof"):
        _same(getattr(got, attr), getattr(ref, attr))
    _same_csr(got.P, ref.P)


def _same_plan(mesh: Mesh) -> None:
    plan = AssemblyPlan(mesh)
    S, indices, indptr = reference_plan_layout(mesh)
    _same_csr(plan._S, S)
    _same(plan.indices, indices)
    _same(plan.indptr, indptr)


# ------------------------------------------------------------------ tests


@pytest.mark.parametrize("name", sorted(MESHES))
def test_node_table_and_plan_equal_the_references(name):
    mesh = MESHES[name]()
    assert mesh.nodes.is_hanging.any() == (not name.startswith("uniform")
                                           and name != "spinodal2d")
    _same_table(mesh.nodes, reference_enumerate_nodes(mesh.tree))
    _same_plan(mesh)


def test_batch_meshes_equal_the_references():
    for mesh in batch_meshes():
        _same_table(mesh.nodes, reference_enumerate_nodes(mesh.tree))
        _same_plan(mesh)


@pytest.mark.parametrize("dim", [2, 3])
def test_hanging_chains_resolve_through_the_ragged_expansion(
    dim, monkeypatch
):
    """On an unbalanced spike a hanging node's parents hang too, over
    several levels, and the table and plan still equal the references."""
    rounds = []
    real = nodes_module.expand_ragged

    def counted(starts, counts):
        rounds.append(int(counts.sum()))
        return real(starts, counts)

    monkeypatch.setattr(nodes_module, "expand_ragged", counted)
    t = spike(dim, 5)
    got = enumerate_nodes(t)
    assert len(rounds) >= 2 and min(rounds) > 0
    _same_table(got, reference_enumerate_nodes(t))
    _same_plan(Mesh(t, check_balance=False))


@pytest.mark.parametrize("dim", [2, 3])
def test_incomplete_tree_falls_back_to_probing(dim):
    """Nodes on the uncovered edge of a Morton slice have fewer corner
    incidences than in-root probes without hanging: the count leaves them
    open, and probing must find them regular."""
    t = carved(dim)
    got, ref = enumerate_nodes(t), reference_enumerate_nodes(t)
    _same_table(got, ref)
    bound = 1 << morton.MAX_DEPTH
    on_root = np.count_nonzero((ref.coords == 0) | (ref.coords == bound), 1)
    short = np.bincount(ref.elem_nodes.ravel(), minlength=ref.n_nodes) < (
        1 << (dim - on_root)
    )
    assert np.any(short & ~ref.is_hanging)
    assert np.any(ref.is_hanging)
    _same_plan(Mesh(t))


def _recording(dim, field, threshold):
    """``tree_from_function``'s predicate, recording the levels it is
    asked about."""
    asked = []
    scale = float(1 << morton.MAX_DEPTH)
    nc = 1 << dim
    off = np.vstack([morton.corner_bits(dim), np.full((1, dim), 0.5)])

    def pred(anchors, levels):
        asked.append(np.array(levels))
        size = morton.cell_size(levels).astype(np.float64)
        pts = (anchors[:, None, :] + off[None] * size[:, None, None]) / scale
        vals = field(pts.reshape(-1, dim)).reshape(len(levels), nc + 1)
        return np.any(np.abs(vals) < threshold, axis=1) | (
            (vals.min(axis=1) < 0) & (vals.max(axis=1) > 0)
        )

    return pred, asked


@pytest.mark.parametrize("dim,min_level,max_level,cut_drop", [
    (2, 2, 6, None),
    (2, 0, 5, None),
    (2, 4, 4, None),
    (3, 1, 4, None),
    # (centre, radius) of a drop the root's faces cut
    (2, 2, 6, ((0.1, 0.85), 0.3)),
    (3, 2, 4, ((0.9, 0.2, 0.5), 0.35)),
])
def test_build_tree_asks_only_about_undecided_octants(
    dim, min_level, max_level, cut_drop
):
    centre, radius = cut_drop or ((0.45,) * dim, 0.2)

    def field(x):
        return drop(x, centre, radius, 0.03)

    pred, asked = _recording(dim, field, 0.9)
    tree = build_tree(dim, pred, max_level=max_level, min_level=min_level)
    levels = np.concatenate(asked) if asked else np.zeros(0, np.int64)
    assert np.all(levels >= min_level) and np.all(levels < max_level)
    assert (len(levels) > 0) == (min_level < max_level)

    ref_pred, ref_asked = _recording(dim, field, 0.9)
    ref = reference_build_tree(dim, ref_pred, max_level=max_level,
                               min_level=min_level)
    _same(tree.anchors, ref.anchors)
    _same(tree.levels, ref.levels)
    assert tree == ref
    if min_level < max_level:
        ref_levels = np.concatenate(ref_asked)
        assert np.any((ref_levels < min_level) | (ref_levels >= max_level))


@pytest.mark.parametrize("name", ["bubble2d", "spinodal2d", "cavity2d",
                                  "bubble3d", "jet2d_amr"])
def test_workload_trees_equal_the_reference(name, monkeypatch):
    """Each workload's initial tree, rebuilt through the reference
    ``build_tree``, is the same tree."""
    from repro.octree import build as build_module

    got = workload_mesh(name).tree
    monkeypatch.setattr(build_module, "build_tree", reference_build_tree)
    ref = workload_mesh(name).tree
    _same(got.anchors, ref.anchors)
    _same(got.levels, ref.levels)
