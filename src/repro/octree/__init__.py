"""Linear octree substrate (paper Sec. II-C)."""

from .balance import balance, is_balanced  # noqa: F401
from .build import build_tree, tree_from_function, uniform_tree  # noqa: F401
from .coarsen import coarsen, coarsen_recursive  # noqa: F401
from .level_by_level import (  # noqa: F401
    coarsen_level_by_level,
    refine_level_by_level,
)
from .parbalance import par_balance  # noqa: F401
from .parcoarsen import par_coarsen  # noqa: F401
from .refine import refine, refine_recursive  # noqa: F401
from .tree import Octree  # noqa: F401
