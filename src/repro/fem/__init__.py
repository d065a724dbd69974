"""FEM kernels: basis, GEMM-expressed operators, assembly plans, zip/unzip."""

from .assembly import apply_dirichlet, assemble_matrix, assemble_vector  # noqa: F401
from .matvec import MatrixFreeOperator, apply_elemental  # noqa: F401
from .plan import (  # noqa: F401
    AssemblyPlan,
    StaleAssemblyPlanError,
    get_plan,
    plan_assemble,
)
from .operators import (  # noqa: F401
    convection_matrix,
    load_vector,
    mass_matrix,
    stiffness_matrix,
)
