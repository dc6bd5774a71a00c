"""Optimal conclusive discrimination of two pure product multipartite states.

Computes the closed-form optimum for unambiguously telling two non-orthogonal
pure states apart, runs the sequential local protocol that attains it one
party at a time, and validates both against a brute-force oracle and Monte
Carlo sampling of the physical measurements.
"""

# Each module's __all__ lists its public API once.  A star import binds those
# names here and, like any submodule import, the submodule's own name.
from .states import *
from .pair_disc import *
from .locc import *
from .montecarlo import *

__version__ = "0.1.0"

__all__ = [*states.__all__, *pair_disc.__all__, *locc.__all__, *montecarlo.__all__, "__version__"]
