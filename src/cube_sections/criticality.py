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

``I`` is even in each coordinate, so at a zero coordinate ``a_i`` the
gradient entry and every mixed second derivative vanish.  Averaging the
live density over ``a_i X_i`` gives the transverse one,

    d2I/da_i^2 = (2 pi / 3) f_live''(0) = (c / prod w) Phi_jj / 3,

a third of the corner sum every live diagonal entry already carries.

Off the kinks ``Phi_k`` equals the full-table derivative
``(m-1) sum P delta_k s_+^(m-2)`` of ``Phi``; the half-table form keeps the
right-continuous box density at ``m = 2``.  A zeroth truncated power is the
step ``[s >= 0]`` and a negative one vanishes, which is the derivative of
a step away from its jump.  The table is built on ``|a|``; signs return
through ``sgn(a_k)`` on the gradient and ``sgn(a_j) sgn(a_k)`` on the Hessian.

One kernel evaluates the table for a batch of weight vectors, one per
row.  Powers are repeated products and every sum runs in an order fixed by
``m`` alone, so a row's numbers are bitwise the same in any batch; a
single vector is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .density import _check_weight_count, _corner_shifts, density_at
from .sections import _report_terms
from .weights import (
    InvalidInputError,
    _binade_scaled,
    _live,
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
]

# exact piecewise-polynomial residuals are either ~1e-15 or >> 1e-6, so the
# default threshold has orders of magnitude of slack on both sides
DEFAULT_CRITICALITY_TOL = 1e-9


def sinc_product_integral(a) -> float:
    """``I(a) = integral prod_i sin(a_i t)/(a_i t) dt``, exactly.

    Evaluated as ``2 pi f_a(0)`` by Fourier inversion of the product of
    sinc characteristic functions; homogeneous of degree -1.
    """
    return 2.0 * math.pi * density_at(a, 0.0)


# corner-coordinate entries one pass of the kernel holds per temporary
# array; larger batches are split into passes of whole rows, so memory stays
# bounded without changing any row's arithmetic
_CORNER_BUDGET = 2**20


def _corner_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the ``2^m`` corners on axis 1 by pairwise halving.

    The order of the additions depends only on ``m``, so a row's sum is
    bitwise the same however many rows are stacked with it; a BLAS product
    or ``np.sum`` may pick its order from the whole shape.
    """
    while x.shape[1] > 1:
        h = x.shape[1] >> 1
        x = x[:, :h] + x[:, h:]
    return x[:, 0]


class _CornerRows(NamedTuple):
    """``I`` and its derivatives, one entry per row.

    ``reduced`` holds the terms ``2 pi f_reduced_k(|a_k|)``; ``grad`` and
    ``hessian`` are derivatives in the signed ``a``, and ``transverse`` is
    ``d2I/da_i^2`` along a further coordinate ``a_i = 0``.
    """

    value: np.ndarray
    reduced: np.ndarray
    grad: np.ndarray
    hessian: np.ndarray | None
    transverse: np.ndarray | None


def _corner_rows(a: np.ndarray, *, hessian: bool = False) -> _CornerRows:
    """Evaluate the corner-table identities of the module docstring per row.

    ``a`` is a ``(B, m)`` array of live (nonzero, above the relative
    floor) signed coordinates; the table is built on ``w = |a|``.  Every
    row is computed with elementwise arithmetic and fixed-order sums, so
    its result does not depend on the other rows; the Hessian is built
    only on request.
    """
    count, m = a.shape
    _check_weight_count(m)
    rows = max(1, _CORNER_BUDGET // (m << m))
    if count > rows:
        parts = [_corner_rows(a[i : i + rows], hessian=hessian) for i in range(0, count, rows)]
        return _CornerRows(*(None if f[0] is None else np.concatenate(f) for f in zip(*parts)))

    sgn = np.sign(a)
    w = np.abs(a)

    # doubling adds the weights in index order, whatever the batch; its
    # parities (-1)^(#positive) become (-1)^(#negative), and delta_k = +1
    # where bit k of the corner index is set
    s, parity = _corner_shifts(w)
    par = parity * (1.0 if m % 2 == 0 else -1.0)
    up = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    # P s_+^(m-3), P s_+^(m-2), P s_+^(m-1) by repeated products from the
    # step s_+^0 = [s >= 0]; negative powers vanish
    pos = np.maximum(s, 0.0)
    low = mid = np.zeros_like(s)
    top = (s >= 0.0) * par
    for _ in range(m - 1):
        low, mid, top = mid, top, top * pos
    # one pass sums the delta_k = +1 halves of P s_+^(m-2) (the full-table
    # derivative would average the two one-sided limits of the m = 2 box
    # density) and, in the last column, the whole of P s_+^(m-1)
    sums = _corner_sum(np.concatenate([mid[:, :, None] * up, top[:, :, None]], axis=2))

    prod = np.multiply.accumulate(w, axis=1)[:, -1]
    scale = 2.0 * math.pi / (2.0**m * math.factorial(m - 1) * prod)
    value = scale * sums[:, -1]
    phi = 2.0 * (m - 1) * sums[:, :-1]
    reduced = scale[:, None] * w * phi
    grad = sgn * (scale[:, None] * phi - value[:, None] / w)
    if not hessian:
        return _CornerRows(value, reduced, grad, None, None)

    inv = 1.0 / w
    hw = value[:, None, None] * (
        inv[:, :, None] * inv[:, None, :] + np.eye(m) * (inv**2)[:, None, :]
    ) - scale[:, None, None] * (
        phi[:, :, None] * inv[:, None, :] + inv[:, :, None] * phi[:, None, :]
    )
    transverse = np.zeros(count)
    if m >= 3:
        # P s_+^(m-3) delta_j delta_k summed over the corners, in as few
        # column blocks as the budget allows
        signs = 2.0 * up - 1.0
        signed = (low[:, :, None] * signs)[..., None]
        width = max(1, _CORNER_BUDGET // signed.size)
        cross = np.concatenate(
            [_corner_sum(signed * signs[:, None, k : k + width]) for k in range(0, m, width)],
            axis=2,
        )
        curvature = scale * (m - 1) * (m - 2)
        hw += curvature[:, None, None] * cross
        transverse = curvature * cross[:, 0, 0] / 3.0
    return _CornerRows(value, reduced, grad, sgn[:, :, None] * sgn[:, None, :] * hw, transverse)


class _SincRows(NamedTuple):
    """``I`` and its derivatives at a batch of weight vectors, one row each.

    Arrays are indexed like the input; coordinates off ``live`` (zero, or
    below the relative weight floor of their row) carry a zero reduced
    term and gradient entry, and a Hessian row and column that are zero
    but for the transverse second derivative on the diagonal.
    """

    value: np.ndarray
    live: np.ndarray
    reduced: np.ndarray
    grad: np.ndarray
    hessian: np.ndarray | None


def _sinc_rows(arr: np.ndarray, *, hessian: bool = False) -> _SincRows:
    """:func:`_corner_rows` on the live magnitudes of each row of ``arr``.

    ``arr`` is a ``(B, n)`` array of nonzero weight vectors.  Rows are
    grouped by their number of live coordinates, with one kernel call per
    group, so each row's numbers are the ones it gets alone.  The Hessian
    is exact at zero coordinates too:
    there ``I`` is even, so only the transverse ``(2 pi / 3) f_live''(0)``
    survives, on the diagonal.
    """
    count, n = arr.shape
    mag, live = _live(arr)
    value = np.empty(count)
    reduced = np.zeros_like(mag)
    grad = np.zeros_like(mag)
    full = np.zeros((count, n, n)) if hessian else None
    width = live.sum(axis=1)
    for m in np.unique(width):
        sel = np.flatnonzero(width == m)
        cols = np.nonzero(live[sel])[1].reshape(-1, m)
        at = (sel[:, None], cols)
        rows = _corner_rows(arr[at], hessian=hessian)
        value[sel] = rows.value
        reduced[at] = rows.reduced
        grad[at] = rows.grad
        if hessian:
            full[sel[:, None, None], cols[:, :, None], cols[:, None, :]] = rows.hessian
            row, dead = np.nonzero(~live[sel])
            full[sel[row], dead, dead] = rows.transverse[row]
    return _SincRows(value, live, reduced, grad, full)


def _balance_residuals(table: _SincRows, u: np.ndarray) -> np.ndarray:
    """Rows of the residuals ``r_k = (reduced_k - sigma (1 - u_k^2)) / sigma`` at unit rows ``u``.

    ``table`` is :func:`_sinc_rows` of ``u``; a coordinate off ``live`` has
    residual 0.
    """
    sigma = table.value[:, None]
    return np.where(table.live, (table.reduced - sigma * (1.0 - u**2)) / sigma, 0.0)


def grad_sinc_product_integral(a) -> np.ndarray:
    """Euclidean gradient of :func:`sinc_product_integral`.

    Uses the closed-form identity ``a_k dI/da_k = 2 pi f_reduced(a_k) - I``
    rather than differentiating under the oscillatory integral; the
    coordinate partial vanishes by symmetry where ``a_k = 0``.  It has
    degree -2, so it is taken at ``a`` over its peak's power of two ``2^e``
    and scaled back by ``2^(-2e)``, exactly unless it leaves the float
    range, where it rounds to 0 or an infinity.
    """
    b, e = _binade_scaled(as_weight_vector(a))
    with np.errstate(over="ignore"):
        return np.ldexp(_sinc_rows(b[None]).grad[0], -2 * e)


def _interior(w: np.ndarray) -> bool:
    """Strict inequality ``|w_k| < sum_{i != k} |w_i|`` for every ``k``.

    Fails exactly on directions whose section degenerates toward a face:
    coordinate vectors, two-coordinate diagonals, and their boundary cone.
    """
    ab = np.abs(w)
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


def _degenerate_verdict(u: np.ndarray) -> np.ndarray:
    """Kink verdict of a unit vector or of each row, on the coordinates the kernel keeps.

    One is ``"degenerate-min"``, two within 1e-12 ``"degenerate-max"``, else ``""``.
    """
    mag, live = _live(u)
    kept = live.sum(axis=-1)
    pair = (kept == 2) & (mag.max(axis=-1) - np.where(live, mag, np.inf).min(axis=-1) <= 1e-12)
    return np.select([kept == 1, pair], ["degenerate-min", "degenerate-max"], "")


def criticality_residuals(a, tol: float = DEFAULT_CRITICALITY_TOL) -> CriticalityReport:
    """Evaluate the per-coordinate balance residuals at ``a``.

    The direction is unit-normalized first.  A coordinate at or below the
    relative weight floor has an exactly-zero residual (the analysis
    reduces to the lower dimension, which the report notes).
    """
    u = as_unit_vector(a)
    n = u.size
    table = _sinc_rows(u[None])
    sigma = float(table.value[0])
    mu = None if n < 2 else 2.0 ** (n - 2) * sigma / ((n - 1) * math.pi)
    kept = u[table.live[0]]
    dropped = f"zero coordinates dropped: analyzed as a {kept.size}-dimensional direction"

    common = dict(
        direction=u,
        sigma=sigma,
        lagrange_multiplier=-sigma,
        mu=mu,
        interior=_interior(kept),
        reduction_note=dropped if kept.size < n else None,
    )
    degenerate = str(_degenerate_verdict(u))
    if degenerate:
        return CriticalityReport(
            residuals=None, max_residual=None, verdict=degenerate, **common
        )

    residuals = _balance_residuals(table, u[None])[0]
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
        [cone / (1.0 - u[k] ** 2) for k, (_, cone, _) in enumerate(_report_terms(u)[1])]
    )
    mu_hat = float(np.mean(ratios))
    spread = float((np.max(ratios) - np.min(ratios)) / mu_hat)
    return ConeBalance(ratios=ratios, mu_hat=mu_hat, spread=spread)
