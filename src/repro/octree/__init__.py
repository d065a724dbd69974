"""Linear octree substrate (paper Sec. II-C)."""

from .balance import balance, is_balanced  # noqa: F401
from .build import (  # noqa: F401
    build_tree,
    complete_region,
    tree_from_function,
    tree_from_points,
    uniform_tree,
)
from .coarsen import coarsen, coarsen_recursive  # noqa: F401
from .domain import BoxDomain, ComplementDomain, Domain, SphereDomain  # noqa: F401
from .level_by_level import (  # noqa: F401
    coarsen_level_by_level,
    refine_level_by_level,
)
from .parbalance import par_balance  # noqa: F401
from .parcoarsen import par_coarsen  # noqa: F401
from .refine import refine, refine_recursive  # noqa: F401
from .tree import Octree  # noqa: F401
