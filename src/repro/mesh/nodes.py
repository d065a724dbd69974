"""Nodal enumeration for continuous-Galerkin FEM on 2:1-balanced octrees.

Linear CG elements place nodes at element corners.  On an adaptive octree a
corner of a fine element may lie in the interior of a coarser neighbor's face
or edge — a *hanging* node.  Hanging nodes carry no degree of freedom; their
values interpolate multilinearly from the coarse element's corner nodes (the
paper, Sec. II-B2, challenge 3: thresholded fields take values strictly
between the binary limits exactly at these nodes).

The enumeration is mesh-free in the paper's sense: nodes are identified by
their location code only, and hangingness is decided by a corner count and,
where the count leaves it open, by point-location queries against the leaf
set — no neighbor lists are stored.

The central product is the interpolation matrix ``P`` with shape
``(n_nodes, n_dofs)``: for any vector of independent DOFs ``u``, ``P @ u``
gives values at *all* nodes (hanging included).  Every FEM kernel downstream
(MATVEC, assembly, erosion/dilation) is expressed through ``P`` and its
transpose, which is exactly the gather/scatter structure of the paper's
elemental loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..fem.basis import shape_functions
from ..octree import morton
from ..octree.tree import Octree

_PACK_BITS = morton.MAX_DEPTH + 1  # node coords span [0, 2**MAX_DEPTH] inclusive


def pack_points(points: np.ndarray, dim: int) -> np.ndarray:
    """Unique uint64 key per grid point (coords may equal 2**MAX_DEPTH)."""
    points = np.asarray(points, dtype=np.uint64)
    out = np.zeros(points.shape[:-1], dtype=np.uint64)
    for axis in range(dim):
        out |= points[..., axis] << np.uint64(axis * _PACK_BITS)
    return out


def unpack_points(keys: np.ndarray, dim: int) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.uint64)
    mask = np.uint64((1 << _PACK_BITS) - 1)
    out = np.zeros(keys.shape + (dim,), dtype=np.int64)
    for axis in range(dim):
        out[..., axis] = ((keys >> np.uint64(axis * _PACK_BITS)) & mask).astype(
            np.int64
        )
    return out


@dataclass
class NodeTable:
    """Nodes, element connectivity, hanging-node interpolation."""

    coords: np.ndarray  # (n_nodes, dim) integer grid coords
    elem_nodes: np.ndarray  # (n_elems, 2**dim) node indices, Morton corner order
    is_hanging: np.ndarray  # (n_nodes,) bool
    dof_of_node: np.ndarray  # (n_nodes,) dof index or -1 for hanging
    node_of_dof: np.ndarray  # (n_dofs,) node index
    P: sp.csr_matrix  # (n_nodes, n_dofs) interpolation

    @property
    def n_nodes(self) -> int:
        return len(self.coords)

    @property
    def n_dofs(self) -> int:
        return len(self.node_of_dof)

    def node_values(self, dof_values: np.ndarray) -> np.ndarray:
        """Values at every node (hanging nodes interpolated): ``P @ u``.

        Supports multi-DOF arrays of shape ``(n_dofs, k)``.
        """
        return self.P @ dof_values


def expand_ragged(starts: np.ndarray, counts: np.ndarray):
    """Concatenated ranges ``arange(starts[k], starts[k] + counts[k])`` over
    ``k``, without a Python loop.  Returns ``(offsets, group)`` where
    ``group`` maps each expanded slot back to its ``k``."""
    total = int(counts.sum())
    group = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return np.repeat(starts, counts) + within, group


def enumerate_nodes(tree: Octree) -> NodeTable:
    """Enumerate CG nodes of a 2:1-balanced linear octree.

    A node is hanging when a leaf touching it does not have it as a corner.
    The leaves touching a node are found by point location at its ``2**dim``
    probes ``p + off``, ``off`` in ``{0, -1}**dim``, but only where a count
    leaves the question open: a leaf with ``p`` as a corner holds exactly
    one of the probes inside the root, and leaves are disjoint, so a node
    that is a corner of as many leaves as it has in-root probes
    (``2**(dim - b)`` with ``b`` axes on the root boundary) is regular.  Only
    the nodes with fewer corner incidences are probed: hanging nodes, and
    nodes on the uncovered edge of an incomplete tree (a partition chunk).
    The probes of those nodes also give each hanging node's interpolation
    parents: the corners of the coarsest touching leaf that does not have
    the node as a corner.
    """
    dim = tree.dim
    nc = 1 << dim
    corners = tree.corners()  # (N, nc, dim)
    packed = pack_points(corners, dim)
    uniq, inv = np.unique(packed, return_inverse=True)
    elem_nodes = inv.reshape(len(tree), nc).astype(np.int64)
    coords = unpack_points(uniq, dim)
    n_nodes = len(coords)

    # --- regular by count: one corner incidence per in-root probe ----------
    bound = 1 << morton.MAX_DEPTH
    on_root = np.count_nonzero((coords == 0) | (coords == bound), axis=1)
    incidences = np.bincount(elem_nodes.ravel(), minlength=n_nodes)
    cand = np.flatnonzero(incidences < (1 << (dim - on_root)))

    # --- the others: touching leaves via probe points p + off ---------------
    c_coords = coords[cand]
    probes = c_coords[:, None, :] - morton.corner_bits(dim)  # (M, nc, dim)
    valid = np.all((probes >= 0) & (probes < bound), axis=-1)
    touch = np.full(valid.shape, -1, dtype=np.int64)
    if np.any(valid):
        touch[valid] = tree.locate_points(probes[valid])

    # --- hangingness: p must be a corner of every touching leaf -------------
    t_idx = np.where(touch >= 0, touch, 0)
    t_anchor = tree.anchors[t_idx]  # (M, nc, dim)
    t_size = tree.sizes()[t_idx]  # (M, nc)
    rel = c_coords[:, None, :] - t_anchor
    is_corner = np.all(
        (rel == 0) | (rel == t_size[..., None]), axis=-1
    )  # (M, nc)
    non_corner = (touch >= 0) & ~is_corner
    c_hanging = np.any(non_corner, axis=1)
    is_hanging = np.zeros(n_nodes, dtype=bool)
    is_hanging[cand] = c_hanging

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

    hc = np.flatnonzero(c_hanging)
    h_idx = cand[hc]
    if len(h_idx):
        # Pick per hanging node the touching leaf with minimum level among
        # the non-corner ones.
        lev = np.where(non_corner[hc], tree.levels[t_idx[hc]], 10**9)
        pick = np.argmin(lev, axis=1)
        leaf = touch[hc, pick]
        a = tree.anchors[leaf]
        s = tree.sizes()[leaf].astype(np.float64)
        xi = (coords[h_idx] - a) / s[:, None]  # in [0,1]^dim
        # Multilinear weights over the leaf's 2**dim corners.
        w = shape_functions(xi, dim)
        # Corner node ids of the chosen leaves.
        corner_nodes = elem_nodes[leaf]  # works because leaf is an element idx
        keep = w > 1e-12
        r = np.repeat(h_idx, keep.sum(axis=1))  # sorted: h_idx ascends
        c_nodes = corner_nodes[keep]
        weights = w[keep]
        # Resolve chains: parents that are themselves hanging get substituted
        # until only DOF-carrying nodes remain (bounded by MAX_DEPTH).  Each
        # hanging parent's first-level expansion is its run of rows in r.
        pr, pn, pw = r, c_nodes, weights
        for _ in range(morton.MAX_DEPTH + 1):
            hang = is_hanging[pn]
            if not np.any(hang):
                break
            # Keep resolved entries; expand hanging parents one level.
            starts = np.searchsorted(r, pn[hang], side="left")
            ends = np.searchsorted(r, pn[hang], side="right")
            gather, group = expand_ragged(starts, ends - starts)
            pr = np.concatenate([pr[~hang], pr[hang][group]])
            pn = np.concatenate([pn[~hang], c_nodes[gather]])
            pw = np.concatenate([pw[~hang], pw[hang][group] * weights[gather]])
        else:  # pragma: no cover - a chain deeper than the tree
            raise RuntimeError("hanging-node chain did not resolve")
        rows.append(pr)
        cols.append(dof_of_node[pn])
        vals.append(pw)

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
