"""Variational characterization of critical section directions.

The scale-invariant objective is ``sigma(a) = |a| I(a)`` with

    I(a) = integral of prod_i sin(a_i t)/(a_i t) dt = 2 pi f_a(0),

where ``f_a`` is the exact density of ``sum a_i X_i``.  On the unit sphere,
criticality of ``sigma`` is equivalent to ``grad I || a``; the multiplier is
pinned by Euler's relation for the degree ``-1`` homogeneous ``I`` to
``lambda = -sigma``.  Substituting the closed-form partial derivative

    a_k dI/da_k = 2 pi f_reduced_k(a_k) - I(a)

turns the Lagrange condition into one residual per coordinate,

    r_k = (2 pi f_reduced_k(a_k) - sigma (1 - a_k^2)) / sigma,

which vanishes for every ``k`` exactly at critical directions.  Coordinate
directions and two-coordinate diagonals sit on kinks of the underlying
piecewise polynomials; they are genuine extrema and are labeled by verdict
instead of residuals.

Geometrically the same balance says the cones over the facet slices have
volume proportional to ``1 - a_k^2``; ``cone_balance`` tests that directly.

The value, the reduced-density terms, the gradient and the Hessian are all
read off one table of corner sums.  For the ``m`` nonzero magnitudes
``w = |a|``, the sign patterns ``delta in {-1, +1}^m``, the corner sums
``s = delta . w`` and the parities ``P = (-1)^(#negative delta)``,

    I = c Phi / prod w,   Phi = sum P s_+^(m-1),   c = 2 pi / (2^m (m-1)!),

    2 pi f_reduced_k(a_k) = (c / prod w) w_k Phi_k,
    Phi_k = 2 (m-1) sum_{delta_k = +1} P s_+^(m-2),

    dI/dw_k = c Phi_k / prod w - I / w_k = (2 pi f_reduced_k(a_k) - I) / w_k,

    d2I/dw_j dw_k = (c / prod w) (Phi_jk - Phi_j / w_k - Phi_k / w_j)
                    + I (1 / (w_j w_k) + [j = k] / w_j^2),
    Phi_jk = (m-1)(m-2) sum P delta_j delta_k s_+^(m-3).

Off the kinks ``Phi_k`` equals the full-table derivative
``(m-1) sum P delta_k s_+^(m-2)`` of ``Phi``; the half-table form keeps the
right-continuous box density at ``m = 2``.  A zeroth truncated power is the
step ``[s >= 0]`` and a negative one vanishes, which is the derivative of
a step away from its jump.  Signs return through ``sgn(a_k)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .density import MAX_CLOSED_FORM_WEIGHTS, _sign_patterns, density_at
from .sections import cone_volume
from .weights import (
    RELATIVE_WEIGHT_FLOOR,
    InvalidInputError,
    as_unit_vector,
    as_weight_vector,
)

__all__ = [
    "CriticalityReport",
    "ConeBalance",
    "sinc_product_integral",
    "grad_sinc_product_integral",
    "criticality_residuals",
    "cone_balance",
    "interior_condition",
    "DEFAULT_CRITICALITY_TOL",
]

# exact piecewise-polynomial residuals are either ~1e-15 or >> 1e-6, so the
# default threshold has orders of magnitude of slack on both sides
DEFAULT_CRITICALITY_TOL = 1e-9


def sinc_product_integral(a) -> float:
    """``I(a) = integral prod_i sin(a_i t)/(a_i t) dt``, exactly.

    Evaluated as ``2 pi f_a(0)`` by Fourier inversion of the product of
    sinc characteristic functions; homogeneous of degree -1.
    """
    return 2.0 * math.pi * density_at(as_weight_vector(a), 0.0)


def _truncated_power(s: np.ndarray, p: int) -> np.ndarray:
    """``s_+^p``, with ``s_+^0 = [s >= 0]`` and ``s_+^p = 0`` for ``p < 0``."""
    if p < 0:
        return np.zeros_like(s)
    if p == 0:
        return (s >= 0.0).astype(float)
    return np.maximum(s, 0.0) ** p


class _SincTable(NamedTuple):
    """``I`` and its derivatives at one weight vector, from one corner table.

    Arrays are indexed like the input; coordinates off ``live`` (zero, or
    below the relative weight floor) carry a zero reduced term, gradient
    entry and Hessian row and column.
    """

    value: float
    live: np.ndarray
    reduced: np.ndarray
    grad: np.ndarray
    hessian: np.ndarray | None


def _sinc_table(arr: np.ndarray, *, hessian: bool = False) -> _SincTable:
    """Evaluate the corner-table identities of the module docstring.

    ``arr`` is a validated weight vector; the Hessian is built only on
    request, and is the true one only where every coordinate is live.
    """
    mag = np.abs(arr)
    live = mag > RELATIVE_WEIGHT_FLOOR * float(np.max(mag))
    w = mag[live]
    m = w.size
    if m > MAX_CLOSED_FORM_WEIGHTS:
        raise InvalidInputError(
            f"more than {MAX_CLOSED_FORM_WEIGHTS} nonzero weights: the "
            "truncated-power expansion would lose all precision"
        )
    signs, parity = _sign_patterns(m)
    s = signs @ w
    par = parity if m % 2 == 0 else -parity  # (-1)^(#negative signs)
    scale = 2.0 * math.pi / (2.0**m * math.factorial(m - 1) * float(np.prod(w)))
    value = scale * math.fsum(par * _truncated_power(s, m - 1))
    # the delta_k = +1 half of the table; the full-table derivative would
    # average the two one-sided limits of the m = 2 box density
    phi = 2.0 * (m - 1) * ((signs > 0.0).T @ (par * _truncated_power(s, m - 2)))
    sgn = np.sign(arr[live])

    reduced = np.zeros_like(arr)
    reduced[live] = scale * w * phi
    grad = np.zeros_like(arr)
    grad[live] = sgn * (scale * phi - value / w)
    if not hessian:
        return _SincTable(value, live, reduced, grad, None)

    inv = 1.0 / w
    hw = value * (np.outer(inv, inv) + np.diag(inv**2)) - scale * (
        np.outer(phi, inv) + np.outer(inv, phi)
    )
    if m >= 3:
        t = par * _truncated_power(s, m - 3)
        hw += scale * (m - 1) * (m - 2) * (signs.T @ (t[:, None] * signs))
    full = np.zeros((arr.size, arr.size))
    full[np.ix_(live, live)] = np.outer(sgn, sgn) * hw
    return _SincTable(value, live, reduced, grad, full)


def grad_sinc_product_integral(a) -> np.ndarray:
    """Euclidean gradient of :func:`sinc_product_integral`.

    Uses the closed-form identity ``a_k dI/da_k = 2 pi f_reduced(a_k) - I``
    rather than differentiating under the oscillatory integral; the
    coordinate partial vanishes by symmetry where ``a_k = 0``.
    """
    return _sinc_table(as_weight_vector(a)).grad


def interior_condition(a) -> bool:
    """Strict inequality ``|a_k| < sum_{i != k} |a_i|`` for every ``k``.

    Fails exactly on directions whose section degenerates toward a face:
    coordinate vectors, two-coordinate diagonals, and their boundary cone.
    """
    ab = np.abs(as_weight_vector(a))
    return bool(2.0 * np.max(ab) < np.sum(ab))


@dataclass(frozen=True)
class CriticalityReport:
    """Residuals and multipliers of the balance condition at one direction.

    ``residuals`` and ``max_residual`` are ``None`` for the degenerate
    verdicts, where the objective is not differentiable but the direction
    is a known extremum.
    """

    direction: np.ndarray
    sigma: float
    lagrange_multiplier: float
    mu: float | None
    residuals: np.ndarray | None
    max_residual: float | None
    interior: bool
    verdict: str
    reduction_note: str | None = None

    def to_dict(self) -> dict:
        return {
            "direction": [float(x) for x in self.direction],
            "sigma": self.sigma,
            "lambda": self.lagrange_multiplier,
            "mu": self.mu,
            "residuals": None
            if self.residuals is None
            else [float(r) for r in self.residuals],
            "max_residual": self.max_residual,
            "interior": self.interior,
            "verdict": self.verdict,
            "reduction_note": self.reduction_note,
        }


def _degenerate_verdict(u: np.ndarray) -> str | None:
    nz = np.abs(u[u != 0.0])
    if nz.size == 1:
        return "degenerate-min"
    if nz.size == 2 and abs(nz[0] - nz[1]) <= 1e-12:
        return "degenerate-max"
    return None


def criticality_residuals(a, tol: float = DEFAULT_CRITICALITY_TOL) -> CriticalityReport:
    """Evaluate the per-coordinate balance residuals at ``a``.

    The direction is unit-normalized first.  Coordinates with ``a_k = 0``
    contribute an exactly-zero residual (the analysis reduces to the lower
    dimension, which is noted in the report).
    """
    u = as_unit_vector(a)
    n = u.size
    table = _sinc_table(u)
    sigma = table.value
    mu = None if n < 2 else 2.0 ** (n - 2) * sigma / ((n - 1) * math.pi)
    note = None
    if np.any(u == 0.0):
        kept = int(np.count_nonzero(u))
        note = f"zero coordinates dropped: analyzed as a {kept}-dimensional direction"

    common = dict(
        direction=u,
        sigma=sigma,
        lagrange_multiplier=-sigma,
        mu=mu,
        interior=interior_condition(u),
        reduction_note=note,
    )
    degenerate = _degenerate_verdict(u)
    if degenerate is not None:
        return CriticalityReport(
            residuals=None, max_residual=None, verdict=degenerate, **common
        )

    residuals = np.where(
        table.live, (table.reduced - sigma * (1.0 - u**2)) / sigma, 0.0
    )
    max_residual = float(np.max(np.abs(residuals)))
    verdict = "critical" if max_residual <= tol else "not-critical"
    return CriticalityReport(
        residuals=residuals, max_residual=max_residual, verdict=verdict, **common
    )


class ConeBalance(NamedTuple):
    """Cone volumes measured against the predicted ``1 - a_k^2`` profile."""

    ratios: np.ndarray
    mu_hat: float
    spread: float


def cone_balance(a) -> ConeBalance:
    """Ratios ``cone_volume_k / (1 - a_k^2)`` and their relative spread.

    At a critical direction all ratios coincide with the constant
    ``mu = 2^(n-2) sigma / ((n-1) pi)``, so ``spread`` vanishes; away from
    critical directions the spread is bounded well away from zero.  Not
    meaningful at coordinate directions (the denominator vanishes).
    """
    u = as_unit_vector(a)
    if u.size < 2:
        raise InvalidInputError("cone balance needs dimension at least 2")
    if np.any(1.0 - u**2 == 0.0):
        raise InvalidInputError("cone balance undefined at coordinate directions")
    ratios = np.array(
        [cone_volume(u, k) / (1.0 - u[k] ** 2) for k in range(u.size)]
    )
    mu_hat = float(np.mean(ratios))
    spread = float((np.max(ratios) - np.min(ratios)) / mu_hat)
    return ConeBalance(ratios=ratios, mu_hat=mu_hat, spread=spread)
