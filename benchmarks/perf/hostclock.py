"""Host-speed compensation: a fixed calibration kernel around every timing.

The sandbox this benchmark runs in shares its cores, caches and memory bus
with other tenants.  Measured on the seed host while sizing the workloads:
the *same* work (``cavity2d``, fixed seed) ran 54 % faster or slower from
one 15-second window to the next, in stretches longer than a whole run, so
no statistic taken inside a run - median, quartile, minimum - repeats
better than ~10-35 %.  CPU time moves with wall time (the cores are not
stolen, they are slowed), so it does not help either.

What does repeat is the *ratio* of the program's time to the time of a fixed
piece of work done right before and after it.  ``HostClock`` times a
benchmark-owned kernel (sparse mat-vec + vector updates, a batched einsum
with a scatter, a Python loop, a small sparse LU; ~3 MB working set like the
workloads' own - an in-cache kernel under-reads the slowdown by 25 %) on
both sides of every timed region and reports

    seconds = wall * REFERENCE_S / mean(kernel before, kernel after)

i.e. the wall time the region would have taken on a host that runs the
kernel in ``REFERENCE_S``, the kernel's time on the quiet seed host.  On the
same fifteen-second windows this moved by 1-7 % (README, "Noise").  The raw
wall time of every region is kept beside the compensated one in the detail
files.  The kernel never changes with the program, so a faster program still
reads proportionally fewer seconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: seconds the kernel takes on the quiet seed host (2 x Xeon 2.1 GHz
#: Firecracker guest, NumPy 2.4 / SciPy 1.17, one thread); fixed so that a
#: compensated second means the same thing in every run
REFERENCE_S = 0.020
#: a sample older than this is not reused as a region's "before"
FRESH_S = 0.05
#: a region at least this long is followed by the median of three kernel
#: timings, a shorter one by a single timing: short regions come in large
#: numbers, and calibrating must not take longer than what it calibrates
LONG_REGION_S = 0.25


def _make_kernel():
    rng = np.random.default_rng(20230517)
    n, n_elems = 8000, 6000
    A = (sp.random(n, n, density=9.0 / n, format="csr", random_state=rng)
         + 4.0 * sp.eye(n, format="csr")).tocsr()
    x = rng.random(n)
    elems = rng.random((n_elems, 4, 4))
    basis = rng.random((4, 4, 4))
    rows = rng.integers(0, n, size=16 * n_elems)
    weights = rng.random(16 * n_elems)
    m = 24
    T = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(m, m))
    off = sp.diags([-1.0, -1.0], [-1, 1], shape=(m, m))
    L = (sp.kron(sp.eye(m), T) + sp.kron(off, sp.eye(m))).tocsc()
    ones = np.ones(m * m)

    def kernel() -> None:
        y = x.copy()
        for _ in range(12):  # Krylov-like: mat-vec, dot, scale, axpy
            y = A @ y
            y /= float(y @ y) ** 0.5
            y = y + 0.5 * x
        for _ in range(3):  # assembly-like: batched contraction + scatter
            ke = np.einsum("eij,qjk->eqik", elems, basis)
            np.bincount(rows, weights=ke.reshape(-1)[: len(rows)] * weights,
                        minlength=n)
        acc = 0
        for i in range(2000):  # interpreter overhead
            acc += i * i
        spla.splu(L).solve(ones)  # direct solve

    return kernel


class HostClock:
    """Times regions of the program in host-speed-compensated seconds."""

    def __init__(self) -> None:
        self._kernel = _make_kernel()
        self.samples = []  # every kernel timing of the run
        self._last = 0.0
        self._last_at = -1.0
        self.sample()  # first call pays one-off set-up inside SciPy

    def sample(self, timings: int = 3) -> float:
        """Median of ``timings`` timings of the kernel, taken now."""
        times = []
        for _ in range(timings):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        self._last = statistics.median(times)
        self._last_at = time.perf_counter()
        self.samples.append(self._last)
        return self._last

    def region(self) -> "Region":
        return Region(self)

    def slowdown(self) -> float:
        """Median kernel time of the run over the reference: how much
        slower than the quiet seed host this run's host was."""
        return statistics.median(self.samples) / REFERENCE_S


class Region:
    """``with clock.region() as r: ...`` then ``r.wall`` (measured) and
    ``r.seconds`` (compensated)."""

    def __init__(self, clock: HostClock) -> None:
        self._clock = clock
        self.wall = self.seconds = self.slowdown = 0.0

    def __enter__(self) -> "Region":
        c = self._clock
        stale = time.perf_counter() - c._last_at > FRESH_S
        self._before = c.sample() if stale else c._last
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall = time.perf_counter() - self._t0
        after = self._clock.sample(3 if self.wall >= LONG_REGION_S else 1)
        self.slowdown = 0.5 * (self._before + after) / REFERENCE_S
        self.seconds = self.wall / self.slowdown
        return False
