"""repro.fem.kernels — JIT-compiled fused element kernels, NumPy fallback.

PR 2 made assembly *structurally* amortized (the :class:`~repro.fem.plan.
AssemblyPlan` scatter permutations are precomputed per ``Mesh.generation``),
but every per-call numeric update still ran as interpreted NumPy: a batched
contraction building the elemental batch, a ``bincount`` scatter, an einsum +
``add.at`` matrix-free MATVEC.  Following the lbmpy/pystencils code-generation line
(PAPERS.md), this module compiles those loops as fused, type-specialized
Numba ``njit`` kernels — coefficients are evaluated *inside* the element
loop (no materialized quad-point arrays for the fused-from-corner variants)
and the quadrature contraction, geometric scaling, and scatter run without
interpreter round-trips.

Contract (DESIGN.md §10):

* **Transparent fallback.**  Every kernel has a pure-NumPy fallback.
  Without Numba, or with ``REPRO_JIT=0``, selection silently returns it:
  the elemental batches are the :mod:`repro.fem.operators` reference-tensor
  GEMMs (one BLAS product per operator), the scatter is ``np.bincount``,
  the MATVEC a 2-operand einsum + ``add.at``.
* **Determinism.**  The CSR scatter kernel accumulates in the same order as
  ``np.bincount`` (ascending expanded-entry index), so JIT and fallback
  scatters are **bit-identical** given the same ``Ke``.  Elemental-batch
  and MATVEC kernels reassociate the quadrature/corner sums, so they agree
  with the NumPy path to round-off (1e-14 for float64, enforced by
  ``tests/fem/test_kernels.py``).
* **Observability.**  Every selection bumps ``STATS`` and the obs counters
  ``kernels.jit_hits`` / ``kernels.fallback``; benchmarks record
  :func:`provenance` so a number can never silently come from the wrong
  path.
* **Staleness.**  Mesh-bound kernels (:class:`BoundKernel`, from
  :func:`get_kernel`) carry the ``(Mesh.generation, dtype)`` key they were
  compiled/bound for and raise :class:`StaleKernelError` when applied
  across a remesh — the kernel-cache mirror of
  :class:`~repro.fem.plan.StaleAssemblyPlanError`, linted as spmdlint R6.

The loop sources below are plain Python functions written in nopython
style: :func:`python_kernel` returns them uncompiled, which is how the
differential test suite exercises the *same code object* Numba compiles on
hosts without Numba.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .. import obs
from .basis import tabulate

try:  # pragma: no cover - exercised only where numba is installed
    import numba
    from numba import prange

    HAVE_NUMBA = True
    NUMBA_VERSION: Optional[str] = numba.__version__
except Exception:  # pragma: no cover - the baked container has no numba
    numba = None
    prange = range  # sources stay executable as pure Python
    HAVE_NUMBA = False
    NUMBA_VERSION = None

#: Cumulative per-process selection counters (mirrored into the obs
#: counters ``kernels.jit_hits`` / ``kernels.fallback``); benches and tests
#: read these to prove which path produced a number.
STATS = {"jit_hits": 0, "fallback": 0, "compiled": 0}

_FORCE_FALLBACK_DEPTH = 0


def reset_stats() -> None:
    """Zero the selection counters (tests / benchmark sections)."""
    for k in STATS:
        STATS[k] = 0


def jit_enabled() -> bool:
    """Is the JIT path selectable right now?  Requires Numba, no active
    :func:`fallback_only` scope, and ``REPRO_JIT`` not set to ``0``."""
    if not HAVE_NUMBA or _FORCE_FALLBACK_DEPTH:
        return False
    return os.environ.get("REPRO_JIT", "1") != "0"


class fallback_only:
    """Context manager forcing the NumPy fallback inside its scope —
    benchmarks use it to time the baseline, tests to pin fallback-path
    invariants regardless of the host's Numba availability."""

    def __enter__(self):
        global _FORCE_FALLBACK_DEPTH
        _FORCE_FALLBACK_DEPTH += 1
        return self

    def __exit__(self, *exc):
        global _FORCE_FALLBACK_DEPTH
        _FORCE_FALLBACK_DEPTH -= 1
        return False


class StaleKernelError(RuntimeError):
    """A :class:`BoundKernel` was applied to a mesh of another generation."""


# --------------------------------------------------------------------------
# Kernel sources.
#
# Each is a plain Python function in nopython style; `prange` is
# numba.prange when Numba is present (compiled with parallel=True where the
# per-element writes are independent) and plain `range` otherwise.  Kernels
# that must preserve a global accumulation order (the CSR scatter, the
# nodal scatters) are serial by construction.

_SOURCES: dict[str, tuple[Callable, bool]] = {}


def _source(name: str, parallel: bool):
    def deco(fn):
        _SOURCES[name] = (fn, parallel)
        return fn

    return deco


@_source("ke_mass", parallel=True)
def _src_ke_mass(w, N, coeff_q, hpow, out):
    # out[e,i,j] = h^dim * sum_q w[q] c[e,q] N[q,i] N[q,j]
    n_elems, nq = coeff_q.shape
    nc = N.shape[1]
    for e in prange(n_elems):
        for i in range(nc):
            for j in range(nc):
                acc = 0.0
                for q in range(nq):
                    acc += w[q] * coeff_q[e, q] * N[q, i] * N[q, j]
                out[e, i, j] = acc * hpow[e]


@_source("ke_stiffness", parallel=True)
def _src_ke_stiffness(w, dN, coeff_q, hpow, out):
    # out[e,i,j] = h^(dim-2) * sum_q w[q] c[e,q] (dN[q,i,:] . dN[q,j,:])
    n_elems, nq = coeff_q.shape
    nc = dN.shape[1]
    dim = dN.shape[2]
    for e in prange(n_elems):
        for i in range(nc):
            for j in range(nc):
                acc = 0.0
                for q in range(nq):
                    g = 0.0
                    for d in range(dim):
                        g += dN[q, i, d] * dN[q, j, d]
                    acc += w[q] * coeff_q[e, q] * g
                out[e, i, j] = acc * hpow[e]


@_source("ke_convection", parallel=True)
def _src_ke_convection(w, N, dN, vel_q, hpow, out):
    # out[e,i,j] = h^(dim-1) * sum_q w[q] N[q,i] (v[e,q,:] . dN[q,j,:])
    n_elems = vel_q.shape[0]
    nq = vel_q.shape[1]
    dim = vel_q.shape[2]
    nc = N.shape[1]
    for e in prange(n_elems):
        for i in range(nc):
            for j in range(nc):
                acc = 0.0
                for q in range(nq):
                    vg = 0.0
                    for d in range(dim):
                        vg += vel_q[e, q, d] * dN[q, j, d]
                    acc += w[q] * N[q, i] * vg
                out[e, i, j] = acc * hpow[e]


@_source("ke_mass_corners", parallel=True)
def _src_ke_mass_corners(w, N, cc, hpow, out):
    # Fused field_at_quad: c(q) = sum_k N[q,k] cc[e,k] evaluated in-loop,
    # never materialized as an (e, q) array.
    n_elems, nc = cc.shape
    nq = N.shape[0]
    for e in prange(n_elems):
        for i in range(nc):
            for j in range(nc):
                out[e, i, j] = 0.0
        for q in range(nq):
            c = 0.0
            for k in range(nc):
                c += N[q, k] * cc[e, k]
            cw = w[q] * c
            for i in range(nc):
                for j in range(nc):
                    out[e, i, j] += cw * N[q, i] * N[q, j]
        for i in range(nc):
            for j in range(nc):
                out[e, i, j] *= hpow[e]


@_source("ke_stiffness_corners", parallel=True)
def _src_ke_stiffness_corners(w, N, dN, cc, hpow, out):
    n_elems, nc = cc.shape
    nq = N.shape[0]
    dim = dN.shape[2]
    for e in prange(n_elems):
        for i in range(nc):
            for j in range(nc):
                out[e, i, j] = 0.0
        for q in range(nq):
            c = 0.0
            for k in range(nc):
                c += N[q, k] * cc[e, k]
            cw = w[q] * c
            for i in range(nc):
                for j in range(nc):
                    g = 0.0
                    for d in range(dim):
                        g += dN[q, i, d] * dN[q, j, d]
                    out[e, i, j] += cw * g
        for i in range(nc):
            for j in range(nc):
                out[e, i, j] *= hpow[e]


@_source("ke_convection_corners", parallel=True)
def _src_ke_convection_corners(w, N, dN, vel_c, hpow, out):
    # vel_c: (e, nc, dim) corner velocities; v(q) evaluated in-loop.
    n_elems = vel_c.shape[0]
    nc = vel_c.shape[1]
    dim = vel_c.shape[2]
    nq = N.shape[0]
    for e in prange(n_elems):
        for i in range(nc):
            for j in range(nc):
                out[e, i, j] = 0.0
        for q in range(nq):
            for j in range(nc):
                vg = 0.0
                for d in range(dim):
                    vq = 0.0
                    for k in range(nc):
                        vq += N[q, k] * vel_c[e, k, d]
                    vg += vq * dN[q, j, d]
                for i in range(nc):
                    out[e, i, j] += w[q] * N[q, i] * vg
        for i in range(nc):
            for j in range(nc):
                out[e, i, j] *= hpow[e]


@_source("ke_convection_corners_rho", parallel=True)
def _src_ke_convection_corners_rho(w, N, dN, vel_c, rho_q, hpow, out):
    # Same as ke_convection_corners with a quad-point density weight.
    n_elems = vel_c.shape[0]
    nc = vel_c.shape[1]
    dim = vel_c.shape[2]
    nq = N.shape[0]
    for e in prange(n_elems):
        for i in range(nc):
            for j in range(nc):
                out[e, i, j] = 0.0
        for q in range(nq):
            for j in range(nc):
                vg = 0.0
                for d in range(dim):
                    vq = 0.0
                    for k in range(nc):
                        vq += N[q, k] * vel_c[e, k, d]
                    vg += vq * rho_q[e, q] * dN[q, j, d]
                for i in range(nc):
                    out[e, i, j] += w[q] * N[q, i] * vg
        for i in range(nc):
            for j in range(nc):
                out[e, i, j] *= hpow[e]


@_source("scatter", parallel=False)
def _src_scatter(ke_flat, src, weight, slot, out):
    # Bit-identical to `np.bincount(slot, weights=ke_flat[src] * weight)`:
    # one multiply then one add per expanded entry, ascending entry index.
    # MUST stay serial — the summation order is the determinism contract.
    for n in range(src.shape[0]):
        out[slot[n]] += ke_flat[src[n]] * weight[n]


@_source("elem_matvec", parallel=False)
def _src_elem_matvec(Ke, elem_nodes, nv, acc):
    # Gather -> elemental GEMV -> scatter in one pass.  The scatter order
    # matches `np.add.at(acc, elem_nodes.ravel(), ve.ravel())` (element-
    # major, corner-minor); the GEMV reassociates vs einsum (1e-14).
    n_elems, nc = elem_nodes.shape
    for e in range(n_elems):
        for i in range(nc):
            v = 0.0
            for j in range(nc):
                v += Ke[e, i, j] * nv[elem_nodes[e, j]]
            acc[elem_nodes[e, i]] += v


@_source("mf_stiffness", parallel=False)
def _src_mf_stiffness(conn, nv, w, dN, hpow, coeff, acc):
    # Matrix-free MATVEC with the elemental stiffness rebuilt on the fly
    # inside the loop (the paper's FLOPs-for-memory trade), fused with the
    # gather/scatter.  Serial: accumulation order == the fallback loop.
    n_elems, nc = conn.shape
    nq = w.shape[0]
    dim = dN.shape[2]
    for e in range(n_elems):
        for i in range(nc):
            acc_i = 0.0
            for j in range(nc):
                kij = 0.0
                for q in range(nq):
                    g = 0.0
                    for d in range(dim):
                        g += dN[q, i, d] * dN[q, j, d]
                    kij += w[q] * g
                acc_i += kij * coeff * hpow[e] * nv[conn[e, j]]
            acc[conn[e, i]] += acc_i


@_source("vec_zipped", parallel=True)
def _src_vec_zipped(w, N, coeff_q, hpow, out):
    # Zipped GEMV fused with the unzip: out is the interleaved (e, nn*ndof)
    # elemental load vector, written contiguously per element.
    n_elems, ndof, nq = coeff_q.shape
    nn = N.shape[1]
    for e in prange(n_elems):
        for f in range(ndof):
            for i in range(nn):
                acc = 0.0
                for q in range(nq):
                    acc += coeff_q[e, f, q] * w[q] * N[q, i]
                out[e, i * ndof + f] = acc * hpow[e]


@_source("mat_zipped", parallel=True)
def _src_mat_zipped(w, N, coeff_q, hpow, out):
    # Zipped per-DOF-block GEMM fused with the unzip into the interleaved
    # elemental matrix (paper Figs. 2-3, without the transpose copies).
    n_elems = coeff_q.shape[0]
    ndof = coeff_q.shape[1]
    nq = coeff_q.shape[3]
    nn = N.shape[1]
    for e in prange(n_elems):
        for fi in range(ndof):
            for fj in range(ndof):
                for i in range(nn):
                    for j in range(nn):
                        acc = 0.0
                        for q in range(nq):
                            acc += coeff_q[e, fi, fj, q] * w[q] * N[q, i] * N[q, j]
                        out[e, i * ndof + fi, j * ndof + fj] = acc * hpow[e]


# --------------------------------------------------------------------------
# Compilation and selection


_COMPILED: dict[str, Callable] = {}


def kernel_names() -> list[str]:
    return sorted(_SOURCES)


def python_kernel(name: str) -> Callable:
    """The uncompiled loop source — the exact function Numba would compile.
    The differential suite runs these on hosts without Numba."""
    return _SOURCES[name][0]


def compiled(name: str) -> Optional[Callable]:
    """The njit-compiled kernel, compiling on first use; None without
    Numba.  Compilation is independent of :func:`jit_enabled` so tests can
    exercise compiled kernels under ``fallback_only``."""
    if not HAVE_NUMBA:  # pragma: no branch - trivial guard
        return None
    fn = _COMPILED.get(name)  # pragma: no cover - needs numba
    if fn is None:  # pragma: no cover - needs numba
        src, parallel = _SOURCES[name]
        fn = numba.njit(cache=True, parallel=parallel, fastmath=False)(src)
        _COMPILED[name] = fn
        STATS["compiled"] += 1
        obs.incr("kernels.compiled")
    return fn  # pragma: no cover - needs numba


def select(name: str) -> Optional[Callable]:
    """The compiled kernel when the JIT path is on, else None (caller runs
    its NumPy fallback).  Either way the selection counters advance — this
    is the single observability choke point."""
    if jit_enabled():
        fn = compiled(name)
        if fn is not None:  # pragma: no cover - needs numba
            STATS["jit_hits"] += 1
            obs.incr("kernels.jit_hits")
            return fn
    STATS["fallback"] += 1
    obs.incr("kernels.fallback")
    return None


# --------------------------------------------------------------------------
# Registry: (element kind, local width, dtype) keys, warmed once per plan


_ELEMENT_KINDS = {1: "line", 2: "quad", 3: "hex"}

#: Keys already warmed this process; :func:`provenance` reports them.
_WARMED: "OrderedDict[tuple, bool]" = OrderedDict()


def kernel_key(dim: int, ndof: int = 1, dtype=np.float64) -> tuple:
    """Registry key ``(element kind, local width, dtype name)``."""
    kind = _ELEMENT_KINDS.get(int(dim), f"cube{int(dim)}d")
    return (kind, (1 << int(dim)) * int(ndof), np.dtype(dtype).name)


@lru_cache(maxsize=None)
def _typed_tables(dim: int, dtype_name: str):
    """Quadrature tables cast to the kernel dtype (float32 kernels must not
    silently promote through float64 tables)."""
    pts, w, N, dN = tabulate(dim)
    dt = np.dtype(dtype_name)
    return (
        pts.astype(dt),
        np.ascontiguousarray(w.astype(dt)),
        np.ascontiguousarray(N.astype(dt)),
        np.ascontiguousarray(dN.astype(dt)),
    )


def warm(dim: int, ndof: int = 1, dtype=np.float64) -> tuple:
    """Compile every kernel for one element signature (no-op without
    Numba), so per-call selection never pays the compile.  Called once per
    :class:`~repro.fem.plan.AssemblyPlan` build; idempotent per key."""
    key = kernel_key(dim, ndof, dtype)
    if key in _WARMED:
        _WARMED.move_to_end(key)
        return key
    if HAVE_NUMBA and jit_enabled():  # pragma: no cover - needs numba
        dt = np.dtype(dtype)
        _, w, N, dN = _typed_tables(dim, dt.name)
        nc = 1 << dim
        e1 = np.ones(1, dtype=dt)
        cc = np.ones((1, nc), dtype=dt)
        cq = np.ones((1, len(w)), dtype=dt)
        vq = np.ones((1, len(w), dim), dtype=dt)
        vc = np.ones((1, nc, dim), dtype=dt)
        ke = np.zeros((1, nc, nc), dtype=dt)
        compiled("ke_mass")(w, N, cq, e1, ke)
        compiled("ke_stiffness")(w, dN, cq, e1, ke)
        compiled("ke_convection")(w, N, dN, vq, e1, ke)
        compiled("ke_mass_corners")(w, N, cc, e1, ke)
        compiled("ke_stiffness_corners")(w, N, dN, cc, e1, ke)
        compiled("ke_convection_corners")(w, N, dN, vc, e1, ke)
        compiled("ke_convection_corners_rho")(w, N, dN, vc, cq, e1, ke)
        idx = np.zeros(1, dtype=np.int64)
        f64 = np.zeros(1, dtype=np.float64)
        compiled("scatter")(np.ones(1), idx, np.ones(1), idx, f64.copy())
        en = np.zeros((1, nc), dtype=np.int64)
        compiled("elem_matvec")(
            ke.astype(np.float64), en, np.zeros(nc), np.zeros(nc)
        )
        compiled("mf_stiffness")(
            en, np.zeros(nc), w.astype(np.float64), dN.astype(np.float64),
            np.ones(1), 1.0, np.zeros(nc),
        )
        cz = np.ones((1, ndof, len(w)), dtype=dt)
        mz = np.ones((1, ndof, ndof, len(w)), dtype=dt)
        compiled("vec_zipped")(w, N, cz, e1, np.zeros((1, nc * ndof), dtype=dt))
        compiled("mat_zipped")(
            w, N, mz, e1, np.zeros((1, nc * ndof, nc * ndof), dtype=dt)
        )
    _WARMED[key] = True
    obs.incr("kernels.warmed")
    return key


def provenance() -> dict:
    """JIT availability + selection counters, recorded in every benchmark
    report that uses this module (honesty: a number without its path is
    not a measurement)."""
    return {
        "have_numba": HAVE_NUMBA,
        "numba_version": NUMBA_VERSION,
        "jit_enabled": jit_enabled(),
        "repro_jit_env": os.environ.get("REPRO_JIT"),
        "warmed_keys": ["/".join(map(str, k)) for k in _WARMED],
        "stats": dict(STATS),
    }


# --------------------------------------------------------------------------
# Elemental-batch entry points (the forms.py / layout.py hot paths)


def _coeff_q_like(coeff, n_elems: int, nq: int, dtype) -> np.ndarray:
    """Broadcast a coefficient spec to a contiguous (n_elems, nq) array of
    the kernel dtype (the specs :mod:`repro.fem.operators` accepts)."""
    if np.isscalar(coeff):
        return np.full((n_elems, nq), coeff, dtype=dtype)
    coeff = np.asarray(coeff, dtype=dtype)
    if coeff.ndim == 1:  # per element
        return np.ascontiguousarray(np.repeat(coeff[:, None], nq, axis=1))
    return np.ascontiguousarray(coeff)


def mass_ke(h, dim: int, coeff=1.0, dtype=np.float64) -> np.ndarray:
    """Elemental mass batch ``∫ c N_i N_j`` — JIT fused loop or the
    :func:`repro.fem.operators.mass_matrix` GEMM fallback."""
    fn = select("ke_mass")
    if fn is None:
        from .operators import mass_matrix

        return mass_matrix(h, dim, coeff)
    dt = np.dtype(dtype)
    _, w, N, _ = _typed_tables(dim, dt.name)
    h = np.asarray(h, dtype=dt)
    c = _coeff_q_like(coeff, len(h), len(w), dt)
    out = np.empty((len(h), N.shape[1], N.shape[1]), dtype=dt)
    fn(w, N, c, h**dim, out)
    return out


def stiffness_ke(h, dim: int, coeff=1.0, dtype=np.float64) -> np.ndarray:
    """Elemental stiffness batch ``∫ c ∇N_i · ∇N_j`` (JIT or GEMM)."""
    fn = select("ke_stiffness")
    if fn is None:
        from .operators import stiffness_matrix

        return stiffness_matrix(h, dim, coeff)
    dt = np.dtype(dtype)
    _, w, _, dN = _typed_tables(dim, dt.name)
    h = np.asarray(h, dtype=dt)
    c = _coeff_q_like(coeff, len(h), len(w), dt)
    out = np.empty((len(h), dN.shape[1], dN.shape[1]), dtype=dt)
    fn(w, dN, c, h ** (dim - 2), out)
    return out


def convection_ke(h, dim: int, vel_q: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Elemental convection batch ``∫ N_i (v · ∇N_j)`` from quad-point
    velocities (JIT or GEMM)."""
    fn = select("ke_convection")
    if fn is None:
        from .operators import convection_matrix

        return convection_matrix(h, dim, vel_q)
    dt = np.dtype(dtype)
    _, w, N, dN = _typed_tables(dim, dt.name)
    h = np.asarray(h, dtype=dt)
    v = np.ascontiguousarray(np.asarray(vel_q, dtype=dt))
    out = np.empty((len(h), N.shape[1], N.shape[1]), dtype=dt)
    fn(w, N, dN, v, h ** (dim - 1), out)
    return out


def mass_ke_corners(h, dim: int, corner_vals, dtype=np.float64) -> np.ndarray:
    """Mass batch with the coefficient given as *corner* values (n_elems,
    nc): ``field_at_quad`` is fused into the element loop instead of
    materializing an (n_elems, nq) array."""
    fn = select("ke_mass_corners")
    dt = np.dtype(dtype)
    if fn is None:
        from .operators import mass_matrix, value_at_quad

        return mass_matrix(h, dim, value_at_quad(np.asarray(corner_vals), dim))
    _, w, N, _ = _typed_tables(dim, dt.name)
    h = np.asarray(h, dtype=dt)
    cc = np.ascontiguousarray(np.asarray(corner_vals, dtype=dt))
    out = np.empty((len(h), N.shape[1], N.shape[1]), dtype=dt)
    fn(w, N, cc, h**dim, out)
    return out


def stiffness_ke_corners(h, dim: int, corner_vals, dtype=np.float64) -> np.ndarray:
    """Stiffness batch with a corner-valued coefficient (fused
    ``field_at_quad``)."""
    fn = select("ke_stiffness_corners")
    dt = np.dtype(dtype)
    if fn is None:
        from .operators import stiffness_matrix, value_at_quad

        return stiffness_matrix(
            h, dim, value_at_quad(np.asarray(corner_vals), dim)
        )
    _, w, N, dN = _typed_tables(dim, dt.name)
    h = np.asarray(h, dtype=dt)
    cc = np.ascontiguousarray(np.asarray(corner_vals, dtype=dt))
    out = np.empty((len(h), N.shape[1], N.shape[1]), dtype=dt)
    fn(w, N, dN, cc, h ** (dim - 2), out)
    return out


def convection_ke_corners(
    h, dim: int, vel_corners, rho_q=None, dtype=np.float64
) -> np.ndarray:
    """Convection batch with *corner* velocities (n_elems, nc, dim):
    ``field_at_quad`` on the velocity is fused into the element loop, with
    an optional quad-point density weight ``rho_q``."""
    name = "ke_convection_corners" if rho_q is None else "ke_convection_corners_rho"
    fn = select(name)
    dt = np.dtype(dtype)
    if fn is None:
        from .operators import convection_matrix, value_at_quad

        vq = value_at_quad(np.asarray(vel_corners), dim)
        if rho_q is not None:
            vq = vq * np.asarray(rho_q)[..., None]
        return convection_matrix(h, dim, vq)
    _, w, N, dN = _typed_tables(dim, dt.name)
    h = np.asarray(h, dtype=dt)
    vc = np.ascontiguousarray(np.asarray(vel_corners, dtype=dt))
    out = np.empty((len(h), N.shape[1], N.shape[1]), dtype=dt)
    if rho_q is None:
        fn(w, N, dN, vc, h ** (dim - 1), out)
    else:
        rq = np.ascontiguousarray(np.asarray(rho_q, dtype=dt))
        fn(w, N, dN, vc, rq, h ** (dim - 1), out)
    return out


def scatter_csr(
    ke_flat: np.ndarray,
    src: np.ndarray,
    weight: np.ndarray,
    slot: np.ndarray,
    nnz: int,
) -> np.ndarray:
    """The plan numeric scatter: ``bincount(slot, ke_flat[src] * weight)``.
    The JIT loop accumulates in the identical (ascending-entry) order, so
    both paths are **bit-identical** — pinned by the differential suite."""
    fn = select("scatter")
    if fn is None:
        vals = ke_flat[src] * weight
        return np.bincount(slot, weights=vals, minlength=nnz)
    out = np.zeros(nnz, dtype=np.float64)
    fn(ke_flat, src, weight, slot, out)
    return out


# --------------------------------------------------------------------------
# Mesh-bound kernels (generation-keyed; spmdlint R6 guards stale use)


class BoundKernel:
    """A kernel selection bound to one ``(Mesh.generation, dtype)`` key.

    Holds the mesh's connectivity/interpolation arrays (never the mesh
    itself) so a retired topology cannot be silently applied: callers
    across a remesh boundary must go through :meth:`apply_for` or
    :meth:`check`, the exact contract spmdlint rule R6 enforces.
    """

    def __init__(self, mesh, name: str, dtype=np.float64):
        if name != "elem_matvec":
            raise ValueError(f"unknown bound kernel {name!r}")
        self.name = name
        self.generation = int(mesh.generation)
        self.dtype = np.dtype(dtype)
        self.key = kernel_key(mesh.dim, 1, dtype)
        self._elem_nodes = mesh.nodes.elem_nodes
        self._P = mesh.nodes.P
        self._n_nodes = int(mesh.n_nodes)
        warm(mesh.dim, 1, dtype)

    def check(self, mesh) -> None:
        """Raise :class:`StaleKernelError` unless ``mesh`` is the
        generation this kernel was bound for."""
        if int(mesh.generation) != self.generation:
            raise StaleKernelError(
                f"kernel {self.name!r} bound for mesh generation "
                f"{self.generation} (key {self.key}) applied to generation "
                f"{int(mesh.generation)}; rebind via "
                "repro.fem.kernels.get_kernel(mesh, ...)"
            )

    def apply(self, Ke: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``v = (P^T [batched Ke] P) u`` — gather, elemental GEMV, and
        scatter fused in one JIT pass (fallback: einsum + ``add.at``)."""
        nv = self._P @ u
        fn = select(self.name)
        if fn is None:
            ve = np.einsum("eij,ej->ei", Ke, nv[self._elem_nodes])
            acc = np.zeros(self._n_nodes)
            np.add.at(acc, self._elem_nodes.ravel(), ve.ravel())
        else:  # pragma: no cover - needs numba
            acc = np.zeros(self._n_nodes)
            fn(
                np.ascontiguousarray(np.asarray(Ke, dtype=np.float64)),
                self._elem_nodes,
                nv,
                acc,
            )
        return self._P.T @ acc

    def apply_for(self, mesh, Ke: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Generation-checked :meth:`apply` (the safe entry point for
        callers holding a kernel across remeshes)."""
        self.check(mesh)
        return self.apply(Ke, u)


#: Most-recently-used bound kernels, keyed on (name, generation, dtype).
_BOUND_CACHE: "OrderedDict[tuple, BoundKernel]" = OrderedDict()
_BOUND_CACHE_MAX = 8


def get_kernel(mesh, name: str = "elem_matvec", dtype=np.float64) -> BoundKernel:
    """The process-wide :class:`BoundKernel` for this mesh generation,
    binding (and warming) on first use — the kernel twin of
    :func:`repro.fem.plan.get_plan`."""
    key = (name, int(mesh.generation), np.dtype(dtype).name)
    k = _BOUND_CACHE.get(key)
    if k is None:
        k = BoundKernel(mesh, name, dtype)
        _BOUND_CACHE[key] = k
        while len(_BOUND_CACHE) > _BOUND_CACHE_MAX:
            _BOUND_CACHE.popitem(last=False)
    else:
        _BOUND_CACHE.move_to_end(key)
    return k


def clear_kernel_cache() -> None:
    """Drop bound kernels and warm keys (tests / memory pressure); compiled
    machine code stays cached by Numba."""
    _BOUND_CACHE.clear()
    _WARMED.clear()
