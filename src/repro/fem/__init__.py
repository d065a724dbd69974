"""FEM kernels: basis, GEMM-expressed operators, assembly plans, zip/unzip.

Only the mesh-free modules are re-exported here, so ``repro.mesh`` can use
``repro.fem.basis`` without an import cycle; import the mesh-bound one
(``plan``) from its module.
"""

from .operators import (  # noqa: F401
    convection_matrix,
    load_vector,
    mass_matrix,
    stiffness_matrix,
)
