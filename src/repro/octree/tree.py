"""Linear octree container.

A :class:`Octree` stores a set of octants as flat NumPy arrays of anchors and
levels, in pre-order SFC order (see :mod:`repro.octree.morton`).  A *linear*
octree additionally contains no duplicate and no overlapping (ancestor /
descendant) pairs, i.e. it is a set of leaves.  Incomplete octrees — leaf sets
that do not cover the whole root cube, such as the SFC partition chunks each
rank holds (Sec. II-C of the paper) — are fully supported; nothing in this
module assumes coverage.

An ``Octree`` never mutates: ``anchors`` and ``levels`` are read-only views,
and the SFC keys every search bisects are computed once per tree (taken from
the constructor's sort when it sorts) and kept with it.
"""

from __future__ import annotations

import functools

import numpy as np

from . import morton


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a`` (the caller's own handle stays writable)."""
    view = a.view()
    view.flags.writeable = False
    return view


class Octree:
    """An SFC-sorted list of octants (possibly a non-leaf multiset before
    :func:`linearize`)."""

    __slots__ = ("anchors", "levels", "dim", "_keys")

    def __init__(self, anchors, levels, dim: int, *, presorted: bool = False):
        anchors = np.asarray(anchors, dtype=np.int64).reshape(-1, dim)
        levels = np.asarray(levels, dtype=np.int64).reshape(-1)
        if anchors.shape[0] != levels.shape[0]:
            raise ValueError("anchors / levels length mismatch")
        keys = None
        if not presorted and len(levels) > 1:
            keys = morton.keys(anchors, levels, dim)
            order = np.argsort(keys, kind="stable")
            anchors, levels, keys = anchors[order], levels[order], keys[order]
        self.anchors = _frozen(anchors)
        self.levels = _frozen(levels)
        self.dim = dim
        self._keys = None if keys is None else _frozen(keys)

    def __reduce__(self):
        # through the constructor, so a tree shipped between processes is
        # read-only on arrival as well
        return functools.partial(Octree, presorted=True), (
            self.anchors, self.levels, self.dim,
        )

    # ------------------------------------------------------------------ basic

    @classmethod
    def root(cls, dim: int) -> "Octree":
        """The tree containing only the root octant."""
        return cls(np.zeros((1, dim), dtype=np.int64), np.zeros(1, dtype=np.int64), dim)

    @classmethod
    def empty(cls, dim: int) -> "Octree":
        return cls(
            np.zeros((0, dim), dtype=np.int64), np.zeros(0, dtype=np.int64), dim
        )

    def __len__(self) -> int:
        return len(self.levels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Octree):
            return NotImplemented
        # a key is (anchor, level) packed: equal keys are equal octants
        return self.dim == other.dim and np.array_equal(self.keys(), other.keys())

    def __repr__(self) -> str:
        return f"Octree(dim={self.dim}, n={len(self)})"

    def keys(self) -> np.ndarray:
        """The octants' SFC keys (read-only, computed on first use)."""
        if self._keys is None:
            self._keys = _frozen(morton.keys(self.anchors, self.levels, self.dim))
        return self._keys

    def is_linear(self) -> bool:
        """True iff sorted, duplicate-free, and overlap-free (a true leaf set)."""
        if len(self) < 2:
            return True
        k = self.keys()
        if not np.all(k[:-1] < k[1:]):
            return False
        # In pre-order, an ancestor is immediately followed (somewhere) by its
        # descendants; overlap-freedom of a sorted set reduces to checking
        # consecutive pairs.
        anc = morton.is_ancestor(
            self.anchors[:-1], self.levels[:-1], self.anchors[1:], self.levels[1:]
        )
        return not bool(np.any(anc))

    # ----------------------------------------------------------- set algebra

    def linearize(self) -> "Octree":
        """Remove duplicates and ancestors, keeping the finest octants.

        This matches the standard octree ``linearize`` operation: of any
        overlapping pair, the coarser octant is dropped.
        """
        if len(self) < 2:
            return self
        k = self.keys()
        order = np.argsort(k, kind="stable")
        a = self.anchors[order]
        l = self.levels[order]
        # Drop exact duplicates first.
        ks = k[order]
        keep = np.ones(len(ks), dtype=bool)
        keep[1:] = ks[1:] != ks[:-1]
        a, l = a[keep], l[keep]
        # Iteratively drop octants that are ancestors of their successor.  One
        # pass can expose new adjacent ancestor pairs (a < b < c with a an
        # ancestor of c), so repeat until stable; each pass strictly shrinks.
        while len(l) > 1:
            anc = morton.is_ancestor(a[:-1], l[:-1], a[1:], l[1:])
            if not np.any(anc):
                break
            keep = np.ones(len(l), dtype=bool)
            keep[:-1][anc] = False
            a, l = a[keep], l[keep]
        return Octree(a, l, self.dim, presorted=True)

    def merged(self, other: "Octree") -> "Octree":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Octree(
            np.concatenate([self.anchors, other.anchors]),
            np.concatenate([self.levels, other.levels]),
            self.dim,
        )

    # ------------------------------------------------------------- geometry

    def sizes(self) -> np.ndarray:
        """Side length of each octant in grid units."""
        return morton.cell_size(self.levels)

    def volumes(self) -> np.ndarray:
        """Volume of each octant in grid units**dim (float to avoid overflow)."""
        return morton.cell_size(self.levels).astype(np.float64) ** self.dim

    def centers(self) -> np.ndarray:
        """Centers of octants in grid coordinates (float)."""
        return self.anchors + 0.5 * self.sizes()[:, None]

    def corners(self) -> np.ndarray:
        """Corner coordinates, shape ``(n, 2**dim, dim)``, in Morton corner order."""
        offsets = morton.corner_bits(self.dim)
        return self.anchors[:, None, :] + offsets * self.sizes()[:, None, None]

    # --------------------------------------------------------------- search

    def locate_points(self, points: np.ndarray) -> np.ndarray:
        """Index of the leaf containing each grid point, or -1 if uncovered.

        ``points`` are integer grid coordinates; a point belongs to the leaf
        whose half-open box ``[anchor, anchor + size)`` contains it.  Requires
        a linear (leaf) tree.
        """
        points = np.asarray(points, dtype=np.int64).reshape(-1, self.dim)
        if len(self) == 0:
            return np.full(len(points), -1, dtype=np.int64)
        pk = morton.point_keys(points, self.dim)
        k = self.keys()
        # Candidate: the last leaf with key <= point key.  In pre-order the
        # containing leaf (if any) is exactly this candidate.
        idx = np.searchsorted(k, pk, side="right") - 1
        contains = (idx >= 0) & morton.key_contains(
            k[np.maximum(idx, 0)], pk, self.dim
        )
        return np.where(contains, idx, -1)
