"""Linear algebra substrate (PETSc KSP/SNES substitute)."""

from .gmg import GeometricMultigrid, prolongation  # noqa: F401
from .krylov import SolveResult, bicgstab, cg, gmres  # noqa: F401
from .newton import NewtonResult, newton_solve  # noqa: F401
from .precond import (  # noqa: F401
    JacobiPreconditioner,
    PCDPreconditioner,
    make_preconditioner,
)
