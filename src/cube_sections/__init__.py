"""Exact central hyperplane sections of the cube [-1, 1]^n.

The (n-1)-volume of the section through the origin perpendicular to a
unit vector equals 2^n times the density at 0 of the weighted sum of
independent uniform variables on [-1, 1].  This package builds that
density exactly as a piecewise polynomial, derives section volumes, cone
decompositions and criticality residuals from it, searches the sphere
for critical directions, and cross-checks everything against oscillatory
quadrature and Monte Carlo oracles.

Each library module declares its public names in its own ``__all__``; the
package republishes them, so a name is added or removed in one place.
"""

from . import casework, criticality, density, oracles, piecewise, search, sections, weights
from .casework import *
from .criticality import *
from .density import *
from .oracles import *
from .piecewise import *
from .search import *
from .sections import *
from .weights import *

__version__ = "0.1.0"

__all__ = []
__all__ += casework.__all__
__all__ += criticality.__all__
__all__ += density.__all__
__all__ += oracles.__all__
__all__ += piecewise.__all__
__all__ += search.__all__
__all__ += sections.__all__
__all__ += weights.__all__
