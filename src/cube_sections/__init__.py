"""Exact central hyperplane sections of the cube [-1, 1]^n.

The (n-1)-volume of the section through the origin perpendicular to a
unit vector equals 2^n times the density at 0 of the weighted sum of
independent uniform variables on [-1, 1].  This package builds that
density exactly as a piecewise polynomial, derives section volumes, cone
decompositions and criticality residuals from it, searches the sphere
for critical directions, and cross-checks everything against oscillatory
quadrature and Monte Carlo oracles.
"""

from .casework import (
    INTERIOR_BOUND_TRIPLE,
    Case,
    QuadResidual,
    TripleRoot,
    n3_cyclic_sum,
    n3_identity_check,
    n4_case_balance,
    n4_case_dispatch,
    pairwise_balance,
    solve_n4_system_triple,
    solve_n4_system_unequal,
)
from .criticality import (
    ConeBalance,
    CriticalityReport,
    cone_balance,
    criticality_residuals,
    grad_sinc_product_integral,
    sinc_product_integral,
)
from .density import (
    MAX_CLOSED_FORM_WEIGHTS,
    cdf_at,
    density_at,
    density_by_convolution,
    density_closed_form,
)
from .oracles import (
    MonteCarloEstimate,
    clt_diagonal_asymptote,
    monte_carlo_section,
    sinc_product_quadrature,
)
from .piecewise import PiecewisePolynomial
from .search import (
    CriticalPoint,
    ScanConfig,
    canonicalize,
    classify_critical_point,
    refine_critical,
    scan,
)
from .sections import (
    SectionReport,
    central_volume,
    central_volumes,
    cone_volume,
    diagonal_direction,
    diagonal_section_volume,
    facet_section_volume,
    normalized_section,
    parallel_section,
    section_report,
    slab_identity_check,
)
from .weights import (
    InvalidInputError,
    as_unit_vector,
    as_weight_vector,
    nonzero_weights,
)

__version__ = "0.1.0"

__all__ = [
    "Case",
    "ConeBalance",
    "CriticalPoint",
    "CriticalityReport",
    "INTERIOR_BOUND_TRIPLE",
    "InvalidInputError",
    "MAX_CLOSED_FORM_WEIGHTS",
    "MonteCarloEstimate",
    "PiecewisePolynomial",
    "QuadResidual",
    "ScanConfig",
    "SectionReport",
    "TripleRoot",
    "as_unit_vector",
    "as_weight_vector",
    "canonicalize",
    "cdf_at",
    "central_volume",
    "central_volumes",
    "classify_critical_point",
    "clt_diagonal_asymptote",
    "cone_balance",
    "cone_volume",
    "criticality_residuals",
    "density_at",
    "density_by_convolution",
    "density_closed_form",
    "diagonal_direction",
    "diagonal_section_volume",
    "facet_section_volume",
    "grad_sinc_product_integral",
    "monte_carlo_section",
    "n3_cyclic_sum",
    "n3_identity_check",
    "n4_case_balance",
    "n4_case_dispatch",
    "nonzero_weights",
    "normalized_section",
    "pairwise_balance",
    "parallel_section",
    "refine_critical",
    "scan",
    "section_report",
    "sinc_product_integral",
    "sinc_product_quadrature",
    "slab_identity_check",
    "solve_n4_system_triple",
    "solve_n4_system_unequal",
]
