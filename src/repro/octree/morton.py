"""Morton (Z-order space-filling-curve) keys for linear octrees.

Octants are identified by an *anchor* (the lexicographically smallest corner,
given in integer coordinates on the grid of the deepest admissible level) and
a *level* (the depth in the tree; the root is level 0).  The side length of an
octant at level ``l`` is ``2**(MAX_DEPTH - l)`` grid units, so the domain is
the cube ``[0, 2**MAX_DEPTH)**dim``.

The 64-bit key produced by :func:`keys` is ``(morton(anchor) << LEVEL_BITS) |
level``.  Sorting by this key yields the *pre-order* traversal of the octree:
an ancestor always precedes its descendants, and disjoint octants appear in
SFC order.  This is the total order ``<`` used throughout the paper's
algorithms (linearization, 2:1 balance, partitioning, the overlap/rank search
of Sec. II-C2c).

Everything in this module is vectorized over NumPy arrays; scalar ints work
too via NumPy broadcasting.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Deepest admissible refinement level.  The paper's jet atomization run uses
#: level 15; 19 leaves headroom while keeping 3-D keys within 64 bits
#: (3*19 = 57 anchor bits + 6 level bits = 63).
MAX_DEPTH = 19

#: Bits reserved at the bottom of the key for the level field.
LEVEL_BITS = 6

_U = np.uint64


def cell_size(level):
    """Side length (in grid units at MAX_DEPTH resolution) of a level-``l`` octant."""
    level = np.asarray(level)
    if np.any(level < 0) or np.any(level > MAX_DEPTH):
        raise ValueError(f"level out of range [0, {MAX_DEPTH}]")
    return np.asarray(1 << (MAX_DEPTH - level.astype(np.int64)), dtype=np.int64)


def _dilate(x: np.ndarray, dim: int) -> np.ndarray:
    """Spread the low MAX_DEPTH bits of ``x`` so consecutive bits are ``dim`` apart."""
    x = x.astype(_U)
    if dim == 2:
        # Classic magic-number dilation for up to 32 input bits.
        x = (x | (x << _U(16))) & _U(0x0000FFFF0000FFFF)
        x = (x | (x << _U(8))) & _U(0x00FF00FF00FF00FF)
        x = (x | (x << _U(4))) & _U(0x0F0F0F0F0F0F0F0F)
        x = (x | (x << _U(2))) & _U(0x3333333333333333)
        x = (x | (x << _U(1))) & _U(0x5555555555555555)
        return x
    if dim == 3:
        # Dilation for up to 21 input bits.
        x = (x | (x << _U(32))) & _U(0x1F00000000FFFF)
        x = (x | (x << _U(16))) & _U(0x1F0000FF0000FF)
        x = (x | (x << _U(8))) & _U(0x100F00F00F00F00F)
        x = (x | (x << _U(4))) & _U(0x10C30C30C30C30C3)
        x = (x | (x << _U(2))) & _U(0x1249249249249249)
        return x
    raise ValueError(f"dim must be 2 or 3, got {dim}")


def morton(anchors: np.ndarray, dim: int) -> np.ndarray:
    """Interleaved Morton codes of anchor coordinates (shape (..., dim))."""
    anchors = np.asarray(anchors, dtype=np.int64)
    if anchors.shape[-1] != dim:
        raise ValueError(f"anchors last axis {anchors.shape[-1]} != dim {dim}")
    if np.any(anchors < 0) or np.any(anchors >= (1 << MAX_DEPTH)):
        raise ValueError("anchor coordinates out of domain")
    out = np.zeros(anchors.shape[:-1], dtype=_U)
    for axis in range(dim):
        out |= _dilate(anchors[..., axis].astype(_U), dim) << _U(axis)
    return out


def keys(anchors: np.ndarray, levels: np.ndarray, dim: int) -> np.ndarray:
    """Pre-order SFC keys: ``(morton(anchor) << LEVEL_BITS) | level``."""
    levels = np.asarray(levels, dtype=np.int64)
    if np.any(levels < 0) or np.any(levels > MAX_DEPTH):
        raise ValueError("levels out of range")
    m = morton(anchors, dim)
    return (m << _U(LEVEL_BITS)) | levels.astype(_U)


def point_keys(points: np.ndarray, dim: int) -> np.ndarray:
    """Keys of grid points treated as octants at MAX_DEPTH (for point location)."""
    return keys(points, np.full(np.asarray(points).shape[:-1], MAX_DEPTH), dim)


def key_contains(octant_keys, pkeys, dim: int) -> np.ndarray:
    """Elementwise: does the octant with key ``octant_keys`` contain the grid
    point with key ``pkeys`` (from :func:`point_keys`)?

    A level-``l`` octant's Morton code is that of any point inside it with
    the low ``dim * (MAX_DEPTH - l)`` bits cleared, so containment is
    agreement of the two keys above those bits (and the level field).
    """
    octant_keys = np.asarray(octant_keys, dtype=_U)
    levels = octant_keys & _U((1 << LEVEL_BITS) - 1)
    shift = _U(LEVEL_BITS) + (_U(MAX_DEPTH) - levels) * _U(dim)
    return ((octant_keys ^ np.asarray(pkeys, dtype=_U)) >> shift) == 0


def is_ancestor(a_anchor, a_level, b_anchor, b_level, strict: bool = False):
    """Elementwise test: is octant *a* an ancestor of octant *b*?

    With ``strict=False``, an octant counts as its own ancestor.
    """
    a_anchor = np.asarray(a_anchor, dtype=np.int64)
    b_anchor = np.asarray(b_anchor, dtype=np.int64)
    a_level = np.asarray(a_level, dtype=np.int64)
    b_level = np.asarray(b_level, dtype=np.int64)
    size_a = cell_size(a_level)
    trunc = b_anchor & ~(size_a - 1)[..., None]
    contained = np.all(trunc == a_anchor, axis=-1)
    if strict:
        return contained & (a_level < b_level)
    return contained & (a_level <= b_level)


def overlaps(a_anchor, a_level, b_anchor, b_level):
    """Elementwise test: do the two octants overlap (one is an ancestor of the other)?"""
    return is_ancestor(a_anchor, a_level, b_anchor, b_level) | is_ancestor(
        b_anchor, b_level, a_anchor, a_level
    )


def parent(anchors, levels):
    """Parent octants. Level-0 input raises."""
    anchors = np.asarray(anchors, dtype=np.int64)
    levels = np.asarray(levels, dtype=np.int64)
    if np.any(levels < 1):
        raise ValueError("root has no parent")
    psize = cell_size(levels - 1)
    return anchors & ~(psize - 1)[..., None], levels - 1


@lru_cache(maxsize=None)
def corner_bits(dim: int) -> np.ndarray:
    """Corner offsets ``(2**dim, dim)`` in {0, 1}, Morton order: corner
    ``c`` has bit ``(c >> axis) & 1`` along each axis.  Child order, element
    corner order and the node tables all follow it.  Read-only."""
    c = np.arange(1 << dim, dtype=np.int64)
    out = (c[:, None] >> np.arange(dim, dtype=np.int64)) & 1
    out.setflags(write=False)
    return out


def children(anchors, levels, dim: int):
    """All ``2**dim`` children of each octant, in Morton order.

    Returns ``(child_anchors, child_levels)`` with shapes ``(..., 2**dim, dim)``
    and ``(..., 2**dim)``.
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    levels = np.asarray(levels, dtype=np.int64)
    if np.any(levels >= MAX_DEPTH):
        raise ValueError("cannot refine past MAX_DEPTH")
    half = cell_size(levels + 1)  # child size
    nchild = 1 << dim
    child_anchors = (
        anchors[..., None, :] + corner_bits(dim) * half[..., None, None]
    )
    child_levels = np.broadcast_to(
        (levels + 1)[..., None], levels.shape + (nchild,)
    ).copy()
    return child_anchors, child_levels


def descendant_key_range(anchors, levels, dim: int):
    """Half-open key interval ``[lo, hi)`` containing exactly the keys of all
    descendants (self included) of each octant.

    Any octant *x* satisfies ``lo <= key(x) < hi`` iff the octant is a
    descendant-or-self.  Used for binary-search-based overlap queries.
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    levels = np.asarray(levels, dtype=np.int64)
    m = morton(anchors, dim)
    span = (_U(1) << ((MAX_DEPTH - levels).astype(_U) * _U(dim)))
    lo = (m << _U(LEVEL_BITS)) | levels.astype(_U)
    hi = (m + span) << _U(LEVEL_BITS)
    return lo, hi


def decode_key(key: np.ndarray, dim: int):
    """Inverse of :func:`keys`: recover ``(anchors, levels)``."""
    key = np.asarray(key, dtype=_U)
    levels = (key & _U((1 << LEVEL_BITS) - 1)).astype(np.int64)
    m = key >> _U(LEVEL_BITS)
    anchors = np.zeros(key.shape + (dim,), dtype=np.int64)
    for axis in range(dim):
        anchors[..., axis] = _contract(m >> _U(axis), dim)
    return anchors, levels


def _contract(x: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`_dilate`."""
    x = x.astype(_U)
    if dim == 2:
        x &= _U(0x5555555555555555)
        x = (x | (x >> _U(1))) & _U(0x3333333333333333)
        x = (x | (x >> _U(2))) & _U(0x0F0F0F0F0F0F0F0F)
        x = (x | (x >> _U(4))) & _U(0x00FF00FF00FF00FF)
        x = (x | (x >> _U(8))) & _U(0x0000FFFF0000FFFF)
        x = (x | (x >> _U(16))) & _U(0x00000000FFFFFFFF)
        return x.astype(np.int64)
    if dim == 3:
        x &= _U(0x1249249249249249)
        x = (x | (x >> _U(2))) & _U(0x10C30C30C30C30C3)
        x = (x | (x >> _U(4))) & _U(0x100F00F00F00F00F)
        x = (x | (x >> _U(8))) & _U(0x1F0000FF0000FF)
        x = (x | (x >> _U(16))) & _U(0x1F00000000FFFF)
        x = (x | (x >> _U(32))) & _U(0x00000000001FFFFF)
        return x.astype(np.int64)
    raise ValueError(f"dim must be 2 or 3, got {dim}")


def coarsen_anchor(anchors, from_levels, to_levels):
    """Anchor of the ancestor of each octant at the (coarser) ``to_levels``."""
    anchors = np.asarray(anchors, dtype=np.int64)
    size = cell_size(to_levels)
    return anchors & ~(size - 1)[..., None]
