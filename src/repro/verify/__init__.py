"""Method-of-manufactured-solutions (MMS) verification layer.

The projection-based semi-implicit CHNS scheme we reproduce (Khanwale et
al., arXiv:2107.05123) claims second-order accuracy in space and time;
the fully-coupled framework (arXiv:2009.06628) demonstrates the MMS
methodology for pinning those orders.  This package makes both claims
falsifiable: :mod:`manufactured` gives exact solutions + forcing terms in
closed form (NumPy), :mod:`harness` runs refinement ladders through the
production solvers and fits convergence orders, and ``python -m
repro.verify --quick`` is the CI gate (non-zero exit on an order miss).
"""

from .harness import (  # noqa: F401
    fit_order,
    l2_error,
    h1_error,
    run_all,
    write_report,
)
from .manufactured import ch_manufactured, ns_manufactured  # noqa: F401
