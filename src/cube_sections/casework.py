"""Explicit algebraic criticality conditions in dimensions 3 and 4.

Comparing two coordinates of a critical direction balances two integrals of
the remaining weights' density (``pairwise_balance``).  With one remaining
weight the density is a box and the balance collapses to a cubic in three
variables (``n3_relation``); with two remaining weights it is a trapezoid
whose three linear pieces split the balance into four sign regions, Cases
A-D (``n4_case_residual``).  Chasing the cases over all coordinate
substitutions reduces the 4-dimensional classification to two small
polynomial systems, solved here by dense-multistart Newton.

All case polynomials are the pairwise balance multiplied by an explicit
positive factor (recorded in ``_BALANCE_FACTOR``), which is what makes the
region and boundary cross-checks in the test suite exact.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .density import cdf_at
from .weights import InvalidInputError, as_weight_vector

__all__ = [
    "QuadResidual",
    "Case",
    "pairwise_balance",
    "n3_relation",
    "n3_cyclic_sum",
    "n3_identity_check",
    "n4_case_dispatch",
    "n4_case_residual",
    "n4_case_balance",
    "n4_system_unequal_equations",
    "n4_system_triple_equations",
    "solve_n4_system_unequal",
    "solve_n4_system_triple",
    "TripleRoot",
    "INTERIOR_BOUND_TRIPLE",
    "gaussian_heuristic",
    "gaussian_heuristic_match",
]

_UNIT_TOL = 1e-9

# admissibility bound for the triple-equal system: the interior condition
# a_4 < 3 a_1 on the sphere slice 3 a_1^2 + a_4^2 = 1 forces a_1 > 1/sqrt(12)
INTERIOR_BOUND_TRIPLE = 1.0 / math.sqrt(12.0)


def _require_unit(arr: np.ndarray):
    if abs(float(np.linalg.norm(arr)) - 1.0) > _UNIT_TOL:
        raise InvalidInputError("direction must have unit norm")


@dataclass(frozen=True)
class QuadResidual:
    """One instance of the pairwise balance; zero at critical directions."""

    lhs: float
    rhs: float
    residual: float


def _cdf_rest(rest: np.ndarray, x: float) -> float:
    if not np.any(rest):
        return 1.0 if x >= 0.0 else 0.0  # empty sum: point mass at 0
    return cdf_at(rest, x)


def pairwise_balance(a, i: int, j: int) -> QuadResidual:
    """Balance between coordinates ``i`` and ``j`` of a unit direction.

    lhs = ((1 - a_j^2)/a_j) [F(a_i + a_j) - F(a_i - a_j)] and rhs with the
    roles swapped, where ``F`` is the CDF of the sum over the remaining
    coordinates.  Both sides agree at every pair exactly when the
    direction is critical (non-degenerate cases).
    """
    arr = as_weight_vector(a)
    if arr.size < 3:
        raise InvalidInputError("pairwise balance needs dimension at least 3")
    _require_unit(arr)
    if i == j or not (0 <= i < arr.size and 0 <= j < arr.size):
        raise InvalidInputError("need two distinct coordinate indices")
    ai, aj = float(arr[i]), float(arr[j])
    if ai <= 0.0 or aj <= 0.0:
        raise InvalidInputError("pairwise balance requires positive coordinates")
    rest = np.delete(arr, [i, j])
    lhs = (1.0 - aj**2) / aj * (
        _cdf_rest(rest, ai + aj) - _cdf_rest(rest, ai - aj)
    )
    rhs = (1.0 - ai**2) / ai * (
        _cdf_rest(rest, aj + ai) - _cdf_rest(rest, aj - ai)
    )
    return QuadResidual(lhs=lhs, rhs=rhs, residual=lhs - rhs)


def n3_relation(a, *, validate: bool = True) -> float:
    """The 3-dimensional balance cubic ``a1 + a2 - a3 - a1 a2^2 - a1^2 a2 - a1 a2 a3``.

    Vanishes at interior critical directions with ``a1 != a2``.  With
    ``validate`` the input must satisfy ``0 < a1 <= a2 <= a3 < 1``, unit
    norm and the interior condition ``a3 < a1 + a2``; disable it to
    evaluate cyclic rearrangements.
    """
    arr = as_weight_vector(a)
    if arr.size != 3:
        raise InvalidInputError("expected a 3-vector")
    a1, a2, a3 = (float(x) for x in arr)
    if validate:
        if not (0.0 < a1 <= a2 <= a3 < 1.0):
            raise InvalidInputError("coordinates must satisfy 0 < a1 <= a2 <= a3 < 1")
        _require_unit(arr)
        if not a3 < a1 + a2:
            raise InvalidInputError("interior condition a3 < a1 + a2 violated")
    return a1 + a2 - a3 - a1 * a2**2 - a1**2 * a2 - a1 * a2 * a3


def n3_cyclic_sum(a) -> tuple[float, float]:
    """Sum of the three cyclic balance cubics and its closed form.

    Returns ``(sum, (a1+a2+a3)(1 - a1 a2 - a1 a3 - a2 a3))``; the two are
    identical as polynomials.
    """
    arr = as_weight_vector(a)
    a1, a2, a3 = (float(x) for x in arr)
    total = (
        n3_relation((a1, a2, a3), validate=False)
        + n3_relation((a1, a3, a2), validate=False)
        + n3_relation((a2, a3, a1), validate=False)
    )
    closed = (a1 + a2 + a3) * (1.0 - a1 * a2 - a1 * a3 - a2 * a3)
    return total, closed


def n3_identity_check(a) -> float:
    """``sum of squared differences - 2(1 - sum of pairwise products)``.

    Identically zero on the unit sphere in R^3; the identity that forces
    all-equal coordinates once the pairwise products sum to 1.
    """
    arr = as_weight_vector(a)
    if arr.size != 3:
        raise InvalidInputError("expected a 3-vector")
    a1, a2, a3 = (float(x) for x in arr)
    squares = (a1 - a2) ** 2 + (a1 - a3) ** 2 + (a2 - a3) ** 2
    return squares - 2.0 * (1.0 - a1 * a2 - a1 * a3 - a2 * a3)


class Case(str, enum.Enum):
    """Sign regions of the 4-dimensional balance, per the trapezoid pieces."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"


def _validate_b(b) -> tuple[float, float, float, float]:
    arr = as_weight_vector(b)
    if arr.size != 4:
        raise InvalidInputError("expected a 4-vector (b1, b2, b3, b4)")
    b1, b2, b3, b4 = (float(x) for x in arr)
    if not (0.0 < b1 <= b2 and 0.0 < b3 <= b4):
        raise InvalidInputError("need 0 < b1 <= b2 and 0 < b3 <= b4")
    _require_unit(arr)
    return b1, b2, b3, b4


def _case_signs(b1, b2, b3, b4) -> tuple[float, float]:
    """(s1, s2) = ((b3+b4)-(b1+b2), (b1+b4)-(b2+b3)); signs select the case."""
    return (b3 + b4) - (b1 + b2), (b1 + b4) - (b2 + b3)


_CASE_SIGNS = {
    Case.A: (+1, +1),
    Case.B: (+1, -1),
    Case.C: (-1, +1),
    Case.D: (-1, -1),
}

# positive multiplier turning the pairwise-balance difference of (b1, b2)
# against b3 X3 + b4 X4 into the (factored) case polynomial
_BALANCE_FACTOR = {
    Case.A: lambda b1, b2, b3, b4: 8.0 * b1 * b2 * b3 * b4,
    Case.B: lambda b1, b2, b3, b4: 4.0 * b2 * b3 * b4,
    Case.C: lambda b1, b2, b3, b4: 2.0 * b1 * b2 * b4,
    Case.D: lambda b1, b2, b3, b4: 8.0 * b1 * b2 * b3 * b4,
}


def n4_case_dispatch(b) -> tuple[Case, ...]:
    """All cases whose (non-strict) sign conditions hold at ``b``.

    Interior points get one tag; boundary points between regions get every
    adjacent tag, where the corresponding balances must agree.
    """
    b1, b2, b3, b4 = _validate_b(b)
    s1, s2 = _case_signs(b1, b2, b3, b4)
    tags = []
    for case, (w1, w2) in _CASE_SIGNS.items():
        if w1 * s1 >= 0.0 and w2 * s2 >= 0.0:
            tags.append(case)
    return tuple(tags)


def n4_case_residual(b, case: Case, *, factored: bool = False) -> float:
    """The polynomial residual of one case, in its published arrangement.

    Cases A and C carry a ``(b2 - b1)`` prefactor before the quoted
    equation applies; ``factored=True`` returns the prefactored product,
    which vanishes at ``b1 = b2`` regardless of the rest.

    Raises
    ------
    InvalidInputError
        If ``b`` violates the ordering/normalization or the case's sign
        conditions (small negative slack 1e-12 is tolerated for boundary
        evaluations).
    """
    b1, b2, b3, b4 = _validate_b(b)
    case = Case(case)
    s1, s2 = _case_signs(b1, b2, b3, b4)
    w1, w2 = _CASE_SIGNS[case]
    if w1 * s1 < -1e-12 or w2 * s2 < -1e-12:
        raise InvalidInputError(f"sign conditions of case {case.value} do not hold")
    if case is Case.A:
        res = (b1 + b2 + b3 - b4) ** 2 * (1.0 + b1 * b2) - 8.0 * b1 * b2 * b3 * (
            b1 + b2
        )
        return (b2 - b1) * res if factored else res
    if case is Case.B:
        return (b2**2 - b1**2) * (1.0 + b2**2 - 2.0 * b2 * (b3 + b4)) - (
            1.0 - b2**2
        ) * (b3 - b4) ** 2
    if case is Case.C:
        res = b1 + b2 - b4 - b1 * b2**2 - b1**2 * b2 - b1 * b2 * b4
        return (b2 - b1) * res if factored else res
    res = 8.0 * b1 * b3 * b4 * (1.0 - b2**2) - (b1 - b2 + b3 + b4) ** 2 * (
        b1 + b2 - b1**2 * b2 - b1 * b2**2
    )
    return res


def n4_case_balance(b, case: Case) -> float:
    """Case residual renormalized back to the raw pairwise balance.

    Dividing the factored case polynomial by its positive conversion
    factor recovers ``lhs - rhs`` of the (b1, b2) balance, so the values
    agree across every region boundary.
    """
    b1, b2, b3, b4 = _validate_b(b)
    case = Case(case)
    value = n4_case_residual(b, case, factored=True)
    return value / _BALANCE_FACTOR[case](b1, b2, b3, b4)


def n4_system_unequal_equations(x) -> np.ndarray:
    """Residuals of the system pinning ``a1 = a2 != a3`` candidates.

    Unknowns ``(a1, a3, a4)``; equations: sphere radius, the shared
    pairwise sum constraint ``(a1 + a3 + a4) a4 = 1``, and Case A at the
    substitution ``(a1, a3, a1, a4)``.
    """
    a1, a3, a4 = (float(v) for v in np.asarray(x, dtype=float))
    u = 2.0 * a1 + a3 - a4
    return np.array(
        [
            (a1 + a3 + a4) * a4 - 1.0,
            2.0 * a1**2 + a3**2 + a4**2 - 1.0,
            u**2 * (1.0 + a1 * a3) - 8.0 * a1**2 * a3 * (a1 + a3),
        ]
    )


def _unequal_f(x: np.ndarray) -> np.ndarray:
    a1, a3, a4 = x[:, 0], x[:, 1], x[:, 2]
    u = 2.0 * a1 + a3 - a4
    return np.stack(
        [
            (a1 + a3 + a4) * a4 - 1.0,
            2.0 * a1**2 + a3**2 + a4**2 - 1.0,
            u**2 * (1.0 + a1 * a3) - 8.0 * a1**2 * a3 * (a1 + a3),
        ],
        axis=1,
    )


def _unequal_j(x: np.ndarray) -> np.ndarray:
    a1, a3, a4 = x[:, 0], x[:, 1], x[:, 2]
    u = 2.0 * a1 + a3 - a4
    j = np.empty((x.shape[0], 3, 3))
    j[:, 0, 0] = a4
    j[:, 0, 1] = a4
    j[:, 0, 2] = a1 + a3 + 2.0 * a4
    j[:, 1, 0] = 4.0 * a1
    j[:, 1, 1] = 2.0 * a3
    j[:, 1, 2] = 2.0 * a4
    j[:, 2, 0] = 4.0 * u * (1.0 + a1 * a3) + u**2 * a3 - 8.0 * a3 * (
        3.0 * a1**2 + 2.0 * a1 * a3
    )
    j[:, 2, 1] = 2.0 * u * (1.0 + a1 * a3) + u**2 * a1 - 8.0 * a1**2 * (
        a1 + 2.0 * a3
    )
    j[:, 2, 2] = -2.0 * u * (1.0 + a1 * a3)
    return j


def n4_system_triple_equations(x) -> np.ndarray:
    """Residuals of the system pinning ``a1 = a2 = a3`` candidates.

    Unknowns ``(a1, a4)``; sphere radius plus Case D at the substitution
    ``(a1, a4, a1, a1)``.
    """
    a1, a4 = (float(v) for v in np.asarray(x, dtype=float))
    return np.array(
        [
            3.0 * a1**2 + a4**2 - 1.0,
            8.0 * a1**3 * (1.0 - a4**2)
            - (3.0 * a1 - a4) ** 2 * (a1 + a4) * (1.0 - a1 * a4),
        ]
    )


def _triple_f(x: np.ndarray) -> np.ndarray:
    a1, a4 = x[:, 0], x[:, 1]
    v = 3.0 * a1 - a4
    return np.stack(
        [
            3.0 * a1**2 + a4**2 - 1.0,
            8.0 * a1**3 * (1.0 - a4**2) - v**2 * (a1 + a4) * (1.0 - a1 * a4),
        ],
        axis=1,
    )


def _triple_j(x: np.ndarray) -> np.ndarray:
    a1, a4 = x[:, 0], x[:, 1]
    v = 3.0 * a1 - a4
    p = a1 + a4
    q = 1.0 - a1 * a4
    j = np.empty((x.shape[0], 2, 2))
    j[:, 0, 0] = 6.0 * a1
    j[:, 0, 1] = 2.0 * a4
    j[:, 1, 0] = 24.0 * a1**2 * (1.0 - a4**2) - (
        6.0 * v * p * q + v**2 * q - v**2 * p * a4
    )
    j[:, 1, 1] = -16.0 * a1**3 * a4 - (
        -2.0 * v * p * q + v**2 * q - v**2 * p * a1
    )
    return j


def _newton_multistart(fun, jac, seeds, tol, max_iter=80):
    """Undamped Newton from every seed at once; divergent seeds become NaN.

    A seed stops as soon as ``max|f| <= tol``, the final filter's own test,
    so stopping early changes no verdict.
    """
    x = np.array(seeds, dtype=float)
    active = np.ones(len(x), dtype=bool)
    for _ in range(max_iter):
        with np.errstate(all="ignore"):
            blown = ~np.all(np.isfinite(x), axis=1) | (
                np.max(np.abs(x), axis=1) > 1e3
            )
            x[blown] = np.nan
            active &= ~blown
            idx = np.flatnonzero(active)
            f = fun(x[idx])
            settled = np.max(np.abs(f), axis=1) <= tol
            active[idx[settled]] = False
            idx, f = idx[~settled], f[~settled]
            if not idx.size:
                break
            j = jac(x[idx])
            det = np.linalg.det(j)
            ok = np.abs(det) > 1e-30
            step = np.full_like(x[idx], np.nan)
            if np.any(ok):
                step[ok] = np.linalg.solve(j[ok], f[ok][..., None])[..., 0]
            x[idx] -= step
    with np.errstate(all="ignore"):
        good = np.all(np.isfinite(x), axis=1)
        good[good] &= np.max(np.abs(fun(x[good])), axis=1) <= tol
        # strictly interior roots only; the systems also vanish on coordinate
        # hyperplanes, where they no longer encode the balance
        good &= np.all(np.nan_to_num(x, nan=-1.0) > 1e-6, axis=1)
    return x[good]


def _dedup(points: np.ndarray, tol: float) -> list[np.ndarray]:
    """The first point of each cluster, in sorted order.

    A point is kept when no earlier kept point lies within ``tol`` in the
    max norm.  The first point left is always kept, so one array pass per
    kept root drops everything near it.
    """
    roots: list[np.ndarray] = []
    while len(points):
        roots.append(points[0])
        rest = points[1:]
        points = rest[~(np.max(np.abs(rest - points[0]), axis=1) <= tol)]
    roots.sort(key=lambda r: tuple(r))
    return roots


def solve_n4_system_unequal(
    grid_points: int = 20, tol: float = 1e-13, dedup_tol: float = 1e-9
) -> list[np.ndarray]:
    """All positive roots ``(a1, a3, a4)`` of the unequal-pair system.

    Dense multistart Newton from a ``grid_points^3`` grid in ``(0, 1)^3``;
    exactly one positive root exists, ``(1, 2, 2)/sqrt(10)``.
    """
    g = np.linspace(0.05, 0.95, grid_points)
    seeds = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    found = _newton_multistart(_unequal_f, _unequal_j, seeds, tol)
    return _dedup(found, dedup_tol)


@dataclass(frozen=True)
class TripleRoot:
    """A positive root of the triple-equal system with its admissibility."""

    a1: float
    a4: float
    admissible: bool

    def to_dict(self) -> dict:
        return {"a1": self.a1, "a4": self.a4, "admissible": self.admissible}


def solve_n4_system_triple(
    grid_points: int = 20, tol: float = 1e-13, dedup_tol: float = 1e-9
) -> list[TripleRoot]:
    """All positive roots ``(a1, a4)`` of the triple-equal system.

    Each root is flagged against the interior bound ``a1 > 1/sqrt(12)``;
    inadmissible roots cannot come from critical directions.
    """
    g = np.linspace(0.05, 0.95, grid_points)
    seeds = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    found = _newton_multistart(_triple_f, _triple_j, seeds, tol)
    return [
        TripleRoot(a1=float(r[0]), a4=float(r[1]), admissible=bool(r[0] > INTERIOR_BOUND_TRIPLE))
        for r in _dedup(found, dedup_tol)
    ]


def _std_normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def gaussian_heuristic(r: float, s: float) -> float:
    """``G(r, s) = ((1 - r^2)/r) * integral of the standard normal over [s - 2r, s]``.

    The Gaussian surrogate for the pairwise balance: when the remaining
    weight sum is approximately normal, criticality forces
    ``G(a1, a1 + a2) = G(a2, a1 + a2)``, whose only solution is ``a1 = a2``.
    """
    if not 0.0 < r < 1.0:
        raise InvalidInputError("need 0 < r < 1")
    return (1.0 - r**2) / r * (_std_normal_cdf(s) - _std_normal_cdf(s - 2.0 * r))


def gaussian_heuristic_match(a1: float) -> float:
    """Solve ``G(a1, a1 + x) = G(x, a1 + x)`` for ``x`` in (0, 1).

    Numerically recovers ``x = a1``, the Gaussian-limit version of the
    all-coordinates-equal conclusion.
    """
    if not 0.0 < a1 < 1.0:
        raise InvalidInputError("need 0 < a1 < 1")
    from scipy.optimize import brentq

    def h(x: float) -> float:
        s = a1 + x
        return gaussian_heuristic(a1, s) - gaussian_heuristic(x, s)

    return float(brentq(h, 1e-9, 1.0 - 1e-9, xtol=1e-14))
