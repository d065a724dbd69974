"""Communication statistics.

Every simulated communicator records the traffic it generates.  These
counters are the raw input to the performance model (:mod:`repro.perf`) that
reproduces the paper's Frontera scaling figures: the simulator runs the real
SPMD algorithms at small rank counts and the model extrapolates using the
measured message counts and byte volumes.
"""

from __future__ import annotations

import pickle
import sys
import threading
import warnings

import numpy as np


def payload_bytes(obj) -> int:
    """Wire size of a message payload (ndarray fast path, pickle fallback).

    Scalar sizing is width-aware: NumPy scalars report their true itemsize
    (``np.float32`` is 4 bytes, not 8), booleans are 1 byte, and native
    Python int/float count as the 8-byte machine words MPI would ship.
    Unpicklable payloads fall back to a ``sys.getsizeof`` estimate with a
    warning — never a silent constant — so miscounted traffic is visible in
    the runs that feed the performance model.
    """
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)) and all(
        isinstance(x, np.ndarray) for x in obj
    ):
        return sum(x.nbytes for x in obj)
    if isinstance(obj, np.generic):  # any NumPy scalar, incl. np.bool_
        return obj.nbytes
    if isinstance(obj, bool):  # before int: bool is a subclass
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if obj is None:
        return 0
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as exc:
        size = sys.getsizeof(obj, 64)
        warnings.warn(
            f"payload_bytes: unpicklable payload {type(obj).__name__} "
            f"({exc!r}); estimating {size} bytes via sys.getsizeof",
            RuntimeWarning,
            stacklevel=2,
        )
        return size


class CommStats:
    """Per-world aggregate communication counters (thread-safe).

    The six counters (``FIELDS``) are one integer slot array under one lock:
    a list and a ``threading.Lock`` by default, or a shared
    ``ctx.Array("q", len(CommStats.FIELDS), lock=True)`` and its own lock,
    which is how every rank process of the process backend counts into the
    same totals.
    """

    FIELDS = (
        "messages",
        "bytes_sent",
        "collectives",
        "collective_bytes",
        "barriers",
        "comm_splits",
    )

    def __init__(self, slots=None) -> None:
        if slots is None:
            self._slots, self._lock = [0] * len(self.FIELDS), threading.Lock()
        else:
            self._slots, self._lock = slots, slots.get_lock()

    def _add(self, i: int, nbytes: int) -> None:
        """Count one event in slot ``i`` and its bytes in slot ``i + 1``."""
        with self._lock:
            self._slots[i] += 1
            self._slots[i + 1] += nbytes

    def record_p2p(self, nbytes: int) -> None:
        self._add(0, nbytes)

    def record_collective(self, nbytes: int) -> None:
        self._add(2, nbytes)

    def record_barrier(self) -> None:
        with self._lock:
            self._slots[4] += 1

    def record_split(self) -> None:
        with self._lock:
            self._slots[5] += 1

    def snapshot(self) -> dict:
        with self._lock:
            return dict(zip(self.FIELDS, list(self._slots)))

    def merge(self, snap: dict) -> None:
        """Fold another recorder's snapshot into these counters.

        Used by the process backend to aggregate the cross-process shared
        counters back into the caller's ``CommStats`` after a run."""
        with self._lock:
            for i, name in enumerate(self.FIELDS):
                self._slots[i] += snap.get(name, 0)
