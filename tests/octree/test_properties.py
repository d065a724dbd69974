"""Property-based octree invariants.

Randomized structural properties of the SFC/octree layer:

* Morton key encode/decode round-trips exactly at every level and dimension.
* ``refine`` followed by ``coarsen`` voting the original levels is the
  identity — multi-level refinement emits complete descendant blocks and
  coarsening's consensus rule merges exactly those blocks back.
* ``balance`` is idempotent, and ``par_balance`` preserves (and restores)
  the 2:1 condition, matching the serial result on the gathered union.

Uses hypothesis when available; otherwise each property degrades to a
deterministic seeded sweep so the suite runs in minimal environments.
"""

import numpy as np
import pytest

from repro.mpi.comm import run_spmd
from repro.octree import morton
from repro.octree.balance import balance, is_balanced
from repro.octree.build import build_tree, uniform_tree
from repro.octree.coarsen import coarsen
from repro.octree.parbalance import par_balance
from repro.octree.partition import scatter_tree
from repro.octree.refine import refine
from repro.octree.tree import Octree

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - container always ships hypothesis
    HAVE_HYPOTHESIS = False


def seed_cases(n=20, max_seed=100_000):
    """Decorator: ``fn(seed)`` runs over random seeds — drawn by hypothesis
    when installed, else a fixed deterministic sweep of ``n`` seeds."""
    if HAVE_HYPOTHESIS:

        def deco(fn):
            return settings(max_examples=n, deadline=None)(
                given(seed=st.integers(0, max_seed))(fn)
            )

        return deco

    sweep = np.random.default_rng(0).integers(0, max_seed, size=n)

    def deco(fn):
        return pytest.mark.parametrize("seed", [int(s) for s in sweep])(fn)

    return deco


def random_tree(rng, dim=2, max_level=5):
    def pred(anchors, levels):
        return rng.random(len(levels)) < 0.4

    return build_tree(dim, pred, max_level=max_level, min_level=1)


# ---------------------------------------------------------------- SFC keys


@seed_cases(n=25)
def test_morton_key_roundtrip(seed):
    rng = np.random.default_rng(seed)
    dim = 2 + seed % 2
    level = int(rng.integers(0, morton.MAX_DEPTH + 1))
    size = int(morton.cell_size(level))
    n_cells = (1 << morton.MAX_DEPTH) // size
    anchors = rng.integers(0, n_cells, size=(32, dim)) * size
    levels = np.full(32, level, dtype=np.int64)
    k = morton.keys(anchors, levels, dim)
    a_back, l_back = morton.decode_key(k, dim)
    np.testing.assert_array_equal(a_back, anchors)
    np.testing.assert_array_equal(l_back, levels)


# ------------------------------------------------------- refine <-> coarsen


@seed_cases(n=15)
def test_refine_then_coarsen_is_identity(seed):
    rng = np.random.default_rng(seed)
    dim = 2 + seed % 2
    t = random_tree(rng, dim=dim, max_level=4 if dim == 3 else 5)
    targets = t.levels + rng.integers(0, 3, size=len(t))
    refined = refine(t, targets)
    assert refined.is_linear()
    # Vote each refined leaf back to the level of its originating leaf.
    orig = t.locate_points(refined.centers().astype(np.int64))
    votes = t.levels[orig]
    assert np.all(votes <= refined.levels)
    assert coarsen(refined, votes) == t


@seed_cases(n=15)
def test_refine_preserves_volume(seed):
    rng = np.random.default_rng(seed)
    dim = 2 + seed % 2
    t = random_tree(rng, dim=dim, max_level=4)
    targets = t.levels + rng.integers(0, 3, size=len(t))
    refined = refine(t, targets)
    assert refined.volumes().sum() == pytest.approx(t.volumes().sum())


# ------------------------------------------------------------- 2:1 balance


@seed_cases(n=10)
def test_balance_idempotent(seed):
    rng = np.random.default_rng(seed)
    t = random_tree(rng, dim=2, max_level=6)
    b = balance(t)
    assert is_balanced(b)
    assert balance(b) == b


@seed_cases(n=8)
def test_par_balance_restores_and_preserves_2to1(seed):
    rng = np.random.default_rng(seed)
    nprocs = int(rng.integers(2, 4))
    t = uniform_tree(2, 2)
    targets = t.levels.copy()
    targets[rng.integers(0, len(t))] = int(rng.integers(4, 7))
    unbalanced = refine(t, targets)

    parts = scatter_tree(unbalanced, nprocs)
    outs = run_spmd(nprocs, lambda c: par_balance(c, parts[c.rank]))
    union = Octree(
        np.concatenate([o.anchors for o in outs]),
        np.concatenate([o.levels for o in outs]),
        t.dim,
    )
    assert is_balanced(union)
    assert union == balance(unbalanced)

    # Preservation: running par_balance again on the balanced partition is
    # the identity on every rank's chunk.
    parts2 = scatter_tree(union, nprocs)
    outs2 = run_spmd(nprocs, lambda c: par_balance(c, parts2[c.rank]))
    for before, after in zip(parts2, outs2):
        assert after == before
