"""Simulated MPI substrate: SPMD ranks, collectives, sparse exchange.

Rank execution is pluggable (thread / process / serial) — see
:mod:`repro.runtime`.
"""

from .comm import ANY_SOURCE, ANY_TAG, Comm, SpmdError, run_spmd  # noqa: F401
from .sort import kway_sort, sample_sort  # noqa: F401
from .sparse_exchange import dense_exchange, nbx_exchange  # noqa: F401
from .stats import CommStats  # noqa: F401
