"""2:1 balance against its earlier, per-leaf form, pass for pass.

``balance``, ``is_balanced`` and ``par_balance`` locate one neighbour
stencil per complete sibling family (the parent's sample points, at the
children's level) and one per remaining leaf.  The references below are
those functions as they were before, kept verbatim: every leaf's
``3**dim - 1`` sample points located on every pass (``leaf_neighbors``,
which no longer has a caller in the package, lives here with them).

Per pass, the family form must refine to the same targets from the same
tree, and re-check at least the leaves the per-leaf form re-checks; the
final trees must be equal in anchors, levels and dtypes.  Trees: every
benchmark workload's seed-0 tree as ``balance`` first sees it, the
remesh cycles of the seed-0 ``jet2d_amr`` unit, uniform and graded trees in
2D and 3D, spike trees, Morton slices (incomplete trees, as partition chunks
are, whose cut families fall back to per-leaf queries), and a hypothesis
property over ``jumpy_tree``.  ``balance`` counts each pass's re-check set
from the pass's targets; ``key_balance`` is the form that looked the set up
by key, and the two sets must be equal, pass for pass.  ``par_balance`` on
2-4 ranks must equal the serial ``balance`` and send fewer NBX query points
than its per-leaf form.
Counts and arrays only, no timing.
"""

import importlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chns.initial_conditions import drop
from repro.mpi.comm import Comm, run_spmd
from repro.mpi.sparse_exchange import nbx_exchange
from repro.octree import morton
from repro.octree.balance import balance, is_balanced
from repro.octree.build import build_tree, tree_from_function, uniform_tree
from repro.octree.neighbors import balance_stencil, neighbor_sample_points
from repro.octree.parbalance import _owner_of_points, _MAX_ROUNDS, par_balance
from repro.octree.partition import scatter_tree
from repro.octree.refine import refine
from repro.octree.tree import Octree
from repro.scenarios import ScenarioConfig

from ..mesh.test_build_oracles import _workloads, morton_slice, spike

BALANCE = importlib.import_module("repro.octree.balance")
PARBALANCE = importlib.import_module("repro.octree.parbalance")
ORACLE = sys.modules[__name__]


# ------------------------------------------------------------- references


def leaf_neighbors(tree: Octree, indices: np.ndarray | None = None):
    """For each leaf (or subset), the index of the leaf containing each
    directional sample point (-1 where outside the root cube or uncovered).

    Returns an ``(n, 3**dim - 1)`` array of leaf indices.
    """
    if indices is None:
        anchors, levels = tree.anchors, tree.levels
    else:
        anchors, levels = tree.anchors[indices], tree.levels[indices]
    points, inside = neighbor_sample_points(anchors, levels, tree.dim)
    flat = points.reshape(-1, tree.dim)
    ok = inside.reshape(-1)
    out = np.full(len(flat), -1, dtype=np.int64)
    if np.any(ok):
        out[ok] = tree.locate_points(flat[ok])
    return out.reshape(points.shape[:2])


def reference_balance(tree: Octree) -> Octree:
    """Return the minimal 2:1-balanced refinement of a linear octree."""
    if not tree.is_linear():
        raise ValueError("balance requires a linear (leaf) octree")
    current, check = tree, None  # leaves to check; None = all of them
    for _ in range(4 * morton.MAX_DEPTH):  # +1 ripple: bounded by depth span
        nbr = leaf_neighbors(current, check)  # (n_check, m) leaf indices
        levels = current.levels
        mine = levels if check is None else levels[check]
        valid = nbr >= 0
        nbr_levels = np.where(valid, levels[np.where(valid, nbr, 0)], 10**9)
        # The leaf in direction d must be at least (my level - 1).
        required = mine[:, None] - 1
        viol = valid & (nbr_levels < required)
        if not np.any(viol):
            return current
        targets = levels.copy()
        flat_nbr = nbr[viol]
        flat_req = np.broadcast_to(required, viol.shape)[viol]
        np.maximum.at(targets, flat_nbr, flat_req)
        # Refine offenders by at most one level per pass: the +1 ripple
        # converges to the *minimal* balanced closure (refining straight to
        # the required level would refine the offender's whole footprint,
        # over-resolving the parts far from the fine neighbor).
        targets = np.minimum(targets, levels + 1)
        rows = np.any(viol, axis=1)
        violators = np.nonzero(rows)[0] if check is None else check[rows]
        current, check = _key_lookup(current, targets, violators)
    raise RuntimeError("2:1 balance did not converge")  # pragma: no cover


def _key_lookup(current: Octree, targets, violators):
    """Refine, and find the leaves to re-check by key: the new leaves are
    the ones whose key the old tree lacks."""
    old_keys = current.keys()
    current = refine(current, targets)
    keys = current.keys()
    return current, np.nonzero(
        ~np.isin(keys, old_keys, assume_unique=True)
        | np.isin(keys, old_keys[violators], assume_unique=True)
    )[0]


def key_balance(tree: Octree) -> Octree:
    """``balance`` with its re-check set looked up by key."""
    current, check = tree, None
    for _ in range(4 * morton.MAX_DEPTH):
        stencil = balance_stencil(current, check)
        levels = current.levels
        viol = stencil.violations(levels)
        if not np.any(viol):
            return current
        targets = levels.copy()
        flat_req = np.broadcast_to(stencil.required[:, None], viol.shape)[viol]
        np.maximum.at(targets, stencil.found[viol], flat_req)
        targets = np.minimum(targets, levels + 1)
        violators = stencil.leaves(np.any(viol, axis=1))
        current, check = _key_lookup(current, targets, violators)
    raise RuntimeError("2:1 balance did not converge")  # pragma: no cover


def reference_is_balanced(tree: Octree) -> bool:
    """Check the 2:1 condition over all face/edge/corner adjacencies."""
    if len(tree) < 2:
        return True
    nbr = leaf_neighbors(tree)
    valid = nbr >= 0
    nbr_levels = np.where(valid, tree.levels[np.where(valid, nbr, 0)], 0)
    diff = np.abs(np.where(valid, nbr_levels - tree.levels[:, None], 0))
    return bool(np.all(diff <= 1))


def reference_par_balance(comm: Comm, local: Octree) -> Octree:
    """Restore global 2:1 balance on an SFC-partitioned linear octree."""
    dim = local.dim
    current = local

    for _ in range(_MAX_ROUNDS):
        current = reference_balance(current)  # local pass (incomplete chunk)

        # Partition table: first key per rank (empty ranks excluded).
        first = current.keys()[0] if len(current) else None
        firsts = comm.allgather(first)
        owners = [r for r, f in enumerate(firsts) if f is not None]
        starts = np.array(
            [firsts[r] for r in owners], dtype=np.uint64
        )

        # Sample points outside my coverage -> query their owners.
        if len(current):
            pts, inside = neighbor_sample_points(
                current.anchors, current.levels, dim
            )
            flat = pts.reshape(-1, dim)
            ok = inside.reshape(-1)
            located = np.full(len(flat), -1, dtype=np.int64)
            if np.any(ok):
                located[ok] = current.locate_points(flat[ok])
            remote_sel = ok & (located < 0)
            remote_pts = flat[remote_sel]
            # Level each remote point must satisfy: my leaf level - 1.
            need = np.repeat(
                current.levels, pts.shape[1]
            )[remote_sel] - 1
        else:
            remote_pts = np.zeros((0, dim), np.int64)
            need = np.zeros(0, np.int64)

        outgoing = {}
        if len(remote_pts):
            dest = np.array(owners)[
                _owner_of_points(remote_pts, starts)
            ]
            for q in np.unique(dest):
                if q == comm.rank:
                    continue
                sel = dest == q
                outgoing[int(q)] = (remote_pts[sel], need[sel])
        incoming = nbx_exchange(comm, outgoing)

        # Serve queries: refine my leaves that violate a remote requirement,
        # by at most one level per round (minimal +1 ripple, matching the
        # serial balance closure).
        targets = current.levels.copy()
        # Sorted by querying rank: NBX arrival order is schedule-dependent,
        # so this keeps the update order deterministic on every backend
        # even though `maximum` happens to commute.
        for _, (qpts, qneed) in sorted(incoming.items()):
            if not len(current):
                continue
            idx = current.locate_points(qpts)
            hit = idx >= 0
            if np.any(hit):
                np.maximum.at(targets, idx[hit], qneed[hit])
        targets = np.minimum(targets, current.levels + 1)
        changed = int(np.sum(targets > current.levels))
        if changed:
            current = refine(current, targets)
        total_changed = comm.allreduce(changed)
        if total_changed == 0:
            return current

    raise RuntimeError("par_balance did not converge")  # pragma: no cover


# ------------------------------------------------------------ pass records


def _passes(monkeypatch, fn, tree, module, query):
    """Run ``fn(tree)``, recording the leaves each pass checks (``None`` =
    all) and the tree and targets of each refinement.  ``query`` is the name
    ``module`` locates with."""
    checks, refines = [], []
    located, refined = getattr(module, query), module.refine

    def locating(current, check=None):
        checks.append(check)
        return located(current, check)

    def refining(current, targets):
        refines.append((current, np.array(targets)))
        return refined(current, targets)

    with monkeypatch.context() as m:
        m.setattr(module, query, locating)
        m.setattr(module, "refine", refining)
        out = fn(tree)
    assert len(checks) == len(refines) + 1  # the last pass finds nothing
    return out, checks, refines


def _check_set(check, n):
    return set(range(n)) if check is None else set(check.tolist())


def assert_same_passes(monkeypatch, tree):
    """``balance`` and ``reference_balance`` refine the same trees to the
    same targets pass for pass, the family form re-checking a superset, and
    ``balance`` counts the re-check set ``key_balance`` looks up."""
    got, g_checks, g_refines = _passes(
        monkeypatch, balance, tree, BALANCE, "balance_stencil")
    ref, r_checks, r_refines = _passes(
        monkeypatch, reference_balance, tree, ORACLE, "leaf_neighbors")
    _, k_checks, _ = _passes(
        monkeypatch, key_balance, tree, ORACLE, "balance_stencil")
    assert len(k_checks) == len(g_checks)
    for g, k in zip(g_checks[1:], k_checks[1:]):
        assert g.dtype == k.dtype
        assert np.array_equal(g, k)
    assert len(g_refines) == len(r_refines)
    for (g_tree, g_t), (r_tree, r_t) in zip(g_refines, r_refines):
        assert g_tree == r_tree
        assert g_t.dtype == r_t.dtype
        assert np.array_equal(g_t, r_t)
    assert g_checks[0] is None and r_checks[0] is None
    trees = [tree] + [t for t, _ in g_refines[1:]] + [got]
    for g, r, t in zip(g_checks, r_checks, trees):
        assert _check_set(r, len(t)) <= _check_set(g, len(t))
    for attr in ("anchors", "levels"):
        g, r = getattr(got, attr), getattr(ref, attr)
        assert g.dtype == r.dtype
        assert np.array_equal(g, r)
    assert is_balanced(got) and reference_is_balanced(ref)
    assert is_balanced(tree) == reference_is_balanced(tree)
    return got, len(g_refines)


# ------------------------------------------------------------------ trees


def jumpy_tree(seed, dim, chunk=False):
    """A random leaf tree with a few leaves refined 2-4 levels in one go;
    with ``chunk``, a random Morton slice of it."""
    rng = np.random.default_rng(seed)

    def pred(anchors, levels):
        return rng.random(len(levels)) < 0.4

    t = build_tree(dim, pred, max_level=4 if dim == 2 else 3, min_level=1)
    targets = t.levels.copy()
    picks = rng.choice(len(t), size=min(3, len(t)), replace=False)
    targets[picks] += rng.integers(2, 5, size=len(picks))
    t = refine(t, targets)
    if chunk:
        t = morton_slice(t, *np.sort(rng.choice(len(t) + 1, 2, replace=False)))
    return t


def _recording_balance(record):
    def recording(tree):
        record.append(tree)
        return balance(tree)
    return recording


def recorded_workload_trees() -> dict:
    """Every tree ``balance`` is given while the benchmark workloads set up
    (seed 0; ``batch2d``'s six scenarios) and while the ``jet2d_amr`` unit
    steps (one per remesh cycle)."""
    wl = _workloads()
    trees = {}
    with pytest.MonkeyPatch.context() as m:
        record = []
        for module in ("repro.mesh.mesh", "repro.amr.driver"):
            m.setattr(importlib.import_module(module), "balance",
                      _recording_balance(record))
        for name in ("bubble2d", "spinodal2d", "cavity2d", "bubble3d"):
            spec = wl.generate(name, 0)
            cfg = ScenarioConfig.from_dict(spec["scenario"])
            field = (
                (lambda x, b=float(spec["wall_band"]): wl._wall_distance(x, b))
                if spec["kind"] == "cavity" else cfg.build_ic()
            )
            wl._initial_mesh(cfg, field)
            trees[name], = record
            record.clear()
        for k, d in enumerate(wl.generate("batch2d", 0)["scenarios"]):
            cfg = ScenarioConfig.from_dict(d)
            wl._initial_mesh(cfg, cfg.build_ic())
            trees[f"batch2d_{k}"], = record
            record.clear()
        spec = wl.generate("jet2d_amr", 0)
        sim = wl.make_sim(spec)
        sim.setup()
        trees["jet2d_amr"], = record
        record.clear()
        for _ in range(int(spec["steps"])):
            sim.step()
        assert len(record) == 6  # the unit's remesh cycles
        for k, t in enumerate(record):
            trees[f"jet2d_amr_cycle{k}"] = t
    return trees


@pytest.fixture(scope="module")
def workload_trees():
    return recorded_workload_trees()


WORKLOAD_TREES = (
    ["bubble2d", "spinodal2d", "cavity2d", "bubble3d", "jet2d_amr"]
    + [f"batch2d_{k}" for k in range(6)]
    + [f"jet2d_amr_cycle{k}" for k in range(6)]
)


@pytest.mark.parametrize("name", WORKLOAD_TREES)
def test_workload_tree_passes(monkeypatch, workload_trees, name):
    tree = workload_trees[name]
    got, _ = assert_same_passes(monkeypatch, tree)
    # the workload trees come in sibling families: fewer queries than leaves
    assert len(balance_stencil(got).first) < len(got)


def graded(dim: int) -> Octree:
    """A drop refined to level 6 (2D) / 4 (3D) inside a level-2 tree, not
    balanced yet."""
    c = (0.4,) * dim
    return tree_from_function(dim, lambda x: drop(x, c, 0.25, 0.05),
                              max_level=6 if dim == 2 else 4, min_level=2,
                              threshold=0.9)


def carved_spike(dim: int) -> Octree:
    """A level-2 tree without its last leaf, which cuts the last sibling
    family, and with one leaf refined 3-4 levels in one go: the ripple
    stays clear of the cut family."""
    t = uniform_tree(dim, 2)
    t = morton_slice(t, 0, len(t) - 1)
    targets = t.levels.copy()
    targets[len(t) // 2] = 6 if dim == 2 else 5
    return refine(t, targets)


TREES = {
    "uniform_2d": lambda: uniform_tree(2, 5),
    "uniform_3d": lambda: uniform_tree(3, 3),
    "graded_2d": lambda: graded(2),
    "graded_3d": lambda: graded(3),
    "spike_2d": lambda: spike(2, 8),
    "spike_3d": lambda: spike(3, 6),
    "carved_2d": lambda: carved_spike(2),
    "carved_3d": lambda: carved_spike(3),
}


@pytest.mark.parametrize("name", list(TREES))
def test_tree_passes(monkeypatch, name):
    tree = TREES[name]()
    _, n_passes = assert_same_passes(monkeypatch, tree)
    if name.startswith(("spike", "carved")):
        assert n_passes >= 2  # the ripple runs more than one pass


@pytest.mark.parametrize("dim", [2, 3])
def test_carved_families_fall_back_to_leaves(dim):
    """Where the slice cuts a family, the family is incomplete and its
    leaves are queried one by one; complete families still collapse."""
    b = balance(carved_spike(dim))
    s = balance_stencil(b)
    m = 1 << dim
    assert np.all(np.isin(s.span, (1, m)))
    assert s.span.sum() == len(b)  # every leaf is in exactly one row
    assert np.array_equal(s.leaves(np.ones(len(s.first), bool)),
                          np.arange(len(b)))
    # the leaves with fewer than 2**dim siblings in the tree are queried
    # one by one; there are some, and complete families remain
    parents = morton.parent(b.anchors, b.levels)[0]
    key = morton.keys(parents, b.levels - 1, dim)
    _, inverse, counts = np.unique(key, return_inverse=True,
                                   return_counts=True)
    incomplete = np.nonzero(counts[inverse] < m)[0]
    assert len(incomplete)
    assert np.all(np.isin(incomplete, s.first[s.span == 1]))
    assert np.any(s.span == m)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 3]),
       chunk=st.booleans())
def test_property_passes_equal_per_leaf(seed, dim, chunk):
    with pytest.MonkeyPatch.context() as m:
        assert_same_passes(m, jumpy_tree(seed, dim, chunk))


# ----------------------------------------------------------- par_balance


def _par(fn, tree, nprocs, backend):
    """Run ``fn`` on the scattered tree; the gathered tree and the number
    of query points all ranks sent through NBX."""
    sent = []
    exchange = PARBALANCE.nbx_exchange

    def counting(comm, outgoing):
        sent.append(sum(len(pts) for pts, _ in outgoing.values()))
        return exchange(comm, outgoing)

    parts = scatter_tree(tree, nprocs)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(PARBALANCE, "nbx_exchange", counting)
        m.setattr(ORACLE, "nbx_exchange", counting)
        outs = run_spmd(nprocs, lambda c: fn(c, parts[c.rank]),
                        backend=backend)
    gathered = Octree(np.concatenate([o.anchors for o in outs]),
                      np.concatenate([o.levels for o in outs]), tree.dim)
    return gathered, sum(sent)


def _graded_spike(dim: int) -> Octree:
    """A level-3 (2D) / level-2 (3D) tree with a deep spike mid-curve."""
    t = uniform_tree(dim, 3 if dim == 2 else 2)
    targets = t.levels.copy()
    targets[len(t) // 2] = 7 if dim == 2 else 5
    return refine(t, targets)


@pytest.mark.parametrize("backend", ["serial", "thread"])
@pytest.mark.parametrize("nprocs", [2, 3, 4])
@pytest.mark.parametrize("dim", [2, 3])
def test_par_balance_fewer_query_points(backend, nprocs, dim):
    tree = _graded_spike(dim)
    serial = balance(tree)
    got, n_family = _par(par_balance, tree, nprocs, backend)
    ref, n_leaf = _par(reference_par_balance, tree, nprocs, backend)
    assert got == serial and ref == serial
    assert 0 < n_family < n_leaf


@pytest.mark.parametrize("name", ["cavity2d", "jet2d_amr_cycle0", "bubble3d"])
def test_par_balance_workload_trees(workload_trees, name):
    tree = workload_trees[name]
    got, n_family = _par(par_balance, tree, 3, "serial")
    ref, n_leaf = _par(reference_par_balance, tree, 3, "serial")
    assert got == balance(tree) == ref
    assert n_family < n_leaf


@pytest.mark.parametrize("dim", [2, 3])
def test_is_balanced_equals_reference_on_unbalanced(dim):
    for name in ("spike", "graded"):
        t = spike(dim, 6) if name == "spike" else graded(dim)
        assert is_balanced(t) == reference_is_balanced(t)
        b = balance(t)
        assert is_balanced(b) and reference_is_balanced(b)
    # a lone coarse leaf beside a level-3 family is caught through the
    # family's parent (children at level 3, parent at 2, neighbour at 1)
    t = uniform_tree(dim, 1)
    targets = t.levels.copy()
    targets[0] = 3
    t = refine(t, targets)
    assert not is_balanced(t) and not reference_is_balanced(t)
