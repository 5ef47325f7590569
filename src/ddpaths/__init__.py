"""Exact combinatorics for dispersed Dyck paths.

Enumeration, per-path statistics, invertible path correspondences,
closed-form counters in exact integer arithmetic, and a verification
harness that cross-checks every counter against brute force.

The public names are those in the ``__all__`` lists of the modules
``paths``, ``enumeration``, ``bijections``, ``formulas`` and ``verify``;
each is declared there once and re-exported here.
"""

from .paths import *
from .enumeration import *
from .bijections import *
from .formulas import *
from .verify import *

__version__ = "0.1.0"

__all__ = []
__all__ += paths.__all__
__all__ += enumeration.__all__
__all__ += bijections.__all__
__all__ += formulas.__all__
__all__ += verify.__all__
