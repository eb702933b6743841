"""Robust interval estimators under the imprecise Dirichlet model.

Exact, conservative, and approximate [lower, upper] intervals for
statistical functionals of categorical data when the Dirichlet prior mean
ranges over the whole simplex: expected entropy (exact), expected mutual
information (conservative, O(sigma^2)-tight), and robust credible
intervals, all validated against brute-force lattice and Monte-Carlo
oracles.
"""

from . import credible, exact_extrema, mutual_info, oracle, simplex_core, special_fn, taylor_bounds
from .credible import *
from .exact_extrema import *
from .mutual_info import *
from .oracle import *
from .simplex_core import *
from .special_fn import *
from .taylor_bounds import *

__version__ = "0.1.0"

# Each layer module lists its own public names; the package exports them all.
__all__: list[str] = []
__all__ += simplex_core.__all__
__all__ += special_fn.__all__
__all__ += exact_extrema.__all__
__all__ += taylor_bounds.__all__
__all__ += mutual_info.__all__
__all__ += credible.__all__
__all__ += oracle.__all__
