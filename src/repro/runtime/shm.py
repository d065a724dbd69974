"""ndarray payload shipping over POSIX shared memory.

The process backend moves message payloads between rank processes.  Control
messages and small arrays travel pickled through the ``multiprocessing``
queues; large ndarrays are copied once into a ``multiprocessing.shared_memory``
block and only the (name, dtype, shape) descriptor is pickled, so the bytes
cross the process boundary through the page cache instead of a pipe.

Lifecycle: the sender creates the block, copies the array in, closes its
mapping and *unregisters* the block from its resource tracker; the receiver
attaches, copies out, closes, and unlinks.  Each encoded descriptor is
consumed exactly once (every record is delivered exactly once), so
ownership hand-off is unambiguous.  A receiver that dies before decoding can
leak a block until reboot — acceptable for a simulator, and the parent
process reaps any stragglers it observes on normal shutdown.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Any

import numpy as np

#: Arrays at least this large (bytes) go through shared memory; smaller ones
#: ride the queue pickle.
SHM_MIN_BYTES = 16384

_PICKLED = 0
_SHM_ARRAY = 1


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Detach a block from this process's resource tracker (ownership moves
    to the receiver, which unlinks)."""
    try:  # pragma: no cover - private API, best effort
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


def encode(payload: Any) -> tuple:
    """Encode one message payload for queue transport.

    Top-level contiguous-convertible ndarrays of at least ``SHM_MIN_BYTES``
    go to a fresh shared-memory block; everything else (control tuples,
    scalars, small arrays, containers) is passed through for queue pickling.
    """
    if (
        isinstance(payload, np.ndarray)
        and payload.nbytes >= SHM_MIN_BYTES
        and payload.dtype.hasobject is False
    ):
        arr = np.ascontiguousarray(payload)
        shm = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
        np.ndarray(arr.shape, arr.dtype, buffer=shm.buf)[...] = arr
        name = shm.name
        shm.close()
        _untrack(shm)
        return (_SHM_ARRAY, name, arr.dtype.str, arr.shape)
    return (_PICKLED, payload)


def decode(enc: tuple) -> Any:
    """Decode (and release) a payload produced by :func:`encode`."""
    if enc[0] == _PICKLED:
        return enc[1]
    _, name, dtype, shape = enc
    shm = shared_memory.SharedMemory(name=name)
    try:
        return np.ndarray(shape, np.dtype(dtype), buffer=shm.buf).copy()
    finally:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass

