"""The paper's primary contribution: local-Cahn region identification."""

from .connected_components import (  # noqa: F401
    flag_small_components,
    label_components,
)
from .elemental_cahn import elemental_cahn, erode_dilate_cahn  # noqa: F401
from .erode_dilate import ErodeDilateStats, Stage, erode_dilate  # noqa: F401
from .identifier import (  # noqa: F401
    IdentifierConfig,
    IdentifierResult,
    identify_local_cahn,
)
from .threshold import interface_elements, threshold_octree  # noqa: F401
