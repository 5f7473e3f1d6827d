"""Explicit algebraic criticality conditions in dimensions 3 and 4.

Comparing two coordinates of a critical direction balances two integrals of
the remaining weights' density (``pairwise_balance``).  With one remaining
weight the density is a box and the balance collapses to a cubic in three
variables, whose cyclic sum ``n3_cyclic_sum`` factors in closed form; with
two remaining weights it is a trapezoid whose three linear pieces split the
balance into four sign regions, Cases A-D (``n4_case_dispatch``,
``n4_case_balance``).  Chasing the cases over all coordinate
substitutions reduces the 4-dimensional classification to two small
polynomial systems.  Their lex Groebner bases are triangular and stored
here as integer polynomials in ``a1``, so both are solved exactly: an integer
Sturm chain isolates every root at rational points, and back-substitution
gives each coordinate rounded once.

All case polynomials are the pairwise balance multiplied by an explicit
positive factor (recorded in ``_BALANCE_FACTOR``), which is what makes the
region and boundary cross-checks in the test suite exact.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .density import cdf_at
from .weights import InvalidInputError, as_weight_vector

__all__ = [
    "QuadResidual",
    "Case",
    "pairwise_balance",
    "n3_cyclic_sum",
    "n3_identity_check",
    "n4_case_dispatch",
    "n4_case_balance",
    "solve_n4_system_unequal",
    "solve_n4_system_triple",
    "TripleRoot",
    "INTERIOR_BOUND_TRIPLE",
]

_UNIT_TOL = 1e-9

# admissibility bound for the triple-equal system: the interior condition
# a_4 < 3 a_1 on the sphere slice 3 a_1^2 + a_4^2 = 1 forces a_1 > 1/sqrt(12)
INTERIOR_BOUND_TRIPLE = 1.0 / math.sqrt(12.0)


def _require_unit(arr: np.ndarray):
    if abs(float(np.linalg.norm(arr)) - 1.0) > _UNIT_TOL:
        raise InvalidInputError("direction must have unit norm")


def _sized_vector(a, size: int) -> np.ndarray:
    arr = as_weight_vector(a)
    if arr.size != size:
        raise InvalidInputError(f"expected a {size}-vector")
    return arr


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


def _n3_cubic(a1: float, a2: float, a3: float) -> float:
    """The 3-dimensional balance cubic; zero at interior critical ``a1 != a2``."""
    return a1 + a2 - a3 - a1 * a2**2 - a1**2 * a2 - a1 * a2 * a3


def n3_cyclic_sum(a) -> tuple[float, float]:
    """Sum of the three cyclic balance cubics and its closed form.

    Returns ``(sum, (a1+a2+a3)(1 - a1 a2 - a1 a3 - a2 a3))``; the two are
    identical as polynomials.
    """
    a1, a2, a3 = (float(x) for x in _sized_vector(a, 3))
    total = _n3_cubic(a1, a2, a3) + _n3_cubic(a1, a3, a2) + _n3_cubic(a2, a3, a1)
    closed = (a1 + a2 + a3) * (1.0 - a1 * a2 - a1 * a3 - a2 * a3)
    return total, closed


def n3_identity_check(a) -> float:
    """``sum of squared differences - 2(1 - sum of pairwise products)``.

    Identically zero on the unit sphere in R^3; the identity that forces
    all-equal coordinates once the pairwise products sum to 1.
    """
    arr = _sized_vector(a, 3)
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
    arr = _sized_vector(b, 4)
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
# against b3 X3 + b4 X4 into the case polynomial of ``_case_residual``
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


def _case_residual(b1: float, b2: float, b3: float, b4: float, case: Case) -> float:
    """The case polynomial at validated floats.

    Cases A and C carry their ``(b2 - b1)`` prefactor, so they vanish at
    ``b1 = b2`` regardless of the rest.  The sign conditions of the case
    must hold, up to a slack of 1e-12 for boundary evaluations.
    """
    s1, s2 = _case_signs(b1, b2, b3, b4)
    w1, w2 = _CASE_SIGNS[case]
    if w1 * s1 < -1e-12 or w2 * s2 < -1e-12:
        raise InvalidInputError(f"sign conditions of case {case.value} do not hold")
    if case is Case.A:
        res = (b1 + b2 + b3 - b4) ** 2 * (1.0 + b1 * b2) - 8.0 * b1 * b2 * b3 * (
            b1 + b2
        )
        return (b2 - b1) * res
    if case is Case.B:
        return (b2**2 - b1**2) * (1.0 + b2**2 - 2.0 * b2 * (b3 + b4)) - (
            1.0 - b2**2
        ) * (b3 - b4) ** 2
    if case is Case.C:
        res = b1 + b2 - b4 - b1 * b2**2 - b1**2 * b2 - b1 * b2 * b4
        return (b2 - b1) * res
    return 8.0 * b1 * b3 * b4 * (1.0 - b2**2) - (b1 - b2 + b3 + b4) ** 2 * (
        b1 + b2 - b1**2 * b2 - b1 * b2**2
    )


def n4_case_balance(b, case: Case) -> float:
    """Case residual renormalized back to the raw pairwise balance.

    Dividing the case polynomial by its positive conversion factor
    recovers ``lhs - rhs`` of the (b1, b2) balance, so the values agree
    across every region boundary.  ``b`` must be ordered and unit, and in
    the case's sign region, as :func:`_case_residual` requires.
    """
    b1, b2, b3, b4 = _validate_b(b)
    case = Case(case)
    value = _case_residual(b1, b2, b3, b4, case)
    return value / _BALANCE_FACTOR[case](b1, b2, b3, b4)


# The systems' lex Groebner bases (a4 > a3 > a1), computed once with sympy
# and recomputed by tests/test_casework.py, in triangular form: a squarefree
# eliminant in a1, and each coordinate as (numerator in a1, integer
# denominator), from a basis element linear in that coordinate whose leading
# coefficient vanishes only at a1 = 0.  So every nonzero root a1 extends to
# exactly one solution.  Polynomials are integer coefficients, highest
# degree first.  Unequal pair: the basis eliminant is a1^2 (6 a1^2 - 1)
# (10 a1^2 - 1)(170 a1^8 - 737 a1^6 + 1077 a1^4 - 419 a1^2 + 50), stored
# without a1^2, whose root lies on a coordinate hyperplane.
_UNEQUAL_ELIMINANT = (10200, 0, -46940, 0, 76582, 0, -43109, 0, 10781, 0, -1219, 0, 50)
_UNEQUAL_COORDINATES = (
    ((1, 0), 1),
    ((-5351224867800, 0, 24411311368660, 0, -39106055553198, 0, 20650821555591,
      0, -4283963276119, 0, 303258784261, 0), 22326117770),
    ((171389297439600, 0, -784489786335520, 0, 1267668023227216, 0,
      -694282787618316, 0, 166253177546641, 0, -17961835744579, 0, 842797999473,
      0), 66978353310),
)
# Triple: (2 a1 - 1)(2 a1 + 1)(576 a1^8 - 504 a1^6 + 171 a1^4 - 25 a1^2 + 1)
_TRIPLE_ELIMINANT = (2304, 0, -2592, 0, 1188, 0, -271, 0, 29, 0, -1)
_TRIPLE_COORDINATES = (
    ((1, 0), 1),
    ((-66816, 0, 49824, 0, -14004, 0, 1127, 0, 115, 0), 39),
)


def _horner(poly, x) -> int:
    """``q^d p(x)`` at a rational ``x = r/q`` in lowest terms, with ``d = deg p``.

    Horner's scheme in integers, homogeneous in ``r`` and ``q``: the value
    of ``p(x)`` times a positive integer, so it has the sign of ``p(x)``.
    """
    num, den = x.numerator, x.denominator
    value, power = 0, 1
    for c in poly:
        value = value * num + c * power
        power *= den
    return value


def _sturm_chain(poly) -> list[list[int]]:
    """``p``, ``p'`` and the negated remainders, down to a constant.

    Each member is a positive multiple of the rational one, with integer
    coefficients: a remainder is taken of the dividend times a power of
    the magnitude of the divisor's leading coefficient and divided by its
    content, so every member keeps its signs.  ``p`` must be squarefree,
    so the last remainder is a nonzero constant.
    """
    degree = len(poly) - 1
    chain = [list(poly), [c * (degree - i) for i, c in enumerate(poly[:-1])]]
    while len(chain[-1]) > 1:
        rem, den = chain[-2], chain[-1]
        lead, sign = abs(den[0]), 1 if den[0] > 0 else -1
        while len(rem) >= len(den):
            q = sign * rem[0]
            rem = [lead * r - q * d for r, d in zip_longest(rem, den, fillvalue=0)][1:]
        while not rem[0]:
            rem = rem[1:]
        content = math.gcd(*rem)
        chain.append([-r // content for r in rem])
    return chain


def _sign_changes(chain, x: Fraction) -> int:
    signs = [v > 0 for v in (_horner(p, x) for p in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _isolate(chain, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Intervals ``(l, h]``, one around each root of ``chain[0]`` in ``(lo, hi]``."""
    count = _sign_changes(chain, lo) - _sign_changes(chain, hi)
    if count <= 1:
        return [(lo, hi)] * count
    mid = (lo + hi) / 2
    return _isolate(chain, lo, mid) + _isolate(chain, mid, hi)


def _bisect(poly, lo: Fraction, hi: Fraction, key) -> tuple[Fraction, Fraction]:
    """Bisect ``(lo, hi]`` until ``key`` agrees at both ends.

    The interval holds one simple root of ``poly``; bisection follows the
    sign of ``poly`` and hits a dyadic root exactly.
    """
    if not _horner(poly, hi):
        return hi, hi
    positive = _horner(poly, hi) > 0
    while key(lo) != key(hi):
        mid = (lo + hi) / 2
        value = _horner(poly, mid)
        if not value:
            return mid, mid
        if (value > 0) == positive:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _solve_triangular(eliminant, coordinates) -> list[tuple[float, ...]]:
    """The interior solutions of a triangular system, in increasing ``a1``.

    The roots of the squarefree ``eliminant`` in ``(0, 1]``, where the unit
    sphere keeps ``a1``, are isolated by its Sturm chain.  Each is bisected
    until ``a1`` is rounded, which settles whether the solution is interior,
    and then until both ends of its interval give the same floats in every
    coordinate: each coordinate is evaluated exactly and rounded once.
    """
    from fractions import Fraction

    def rounded(x: Fraction) -> tuple[float, ...]:
        # integer true division rounds the exact quotient correctly
        return tuple(
            _horner(num, x) / (den * x.denominator ** (len(num) - 1)) for num, den in coordinates
        )

    solutions = []
    for lo, hi in _isolate(_sturm_chain(eliminant), Fraction(0), Fraction(1)):
        lo, hi = _bisect(eliminant, lo, hi, float)
        # strictly interior roots only; the systems also vanish on coordinate
        # hyperplanes, where they no longer encode the balance (the
        # unequal-pair root at a1 = 1/sqrt(6) has a3 = 0)
        if min(rounded(hi)) > 1e-6:
            lo, hi = _bisect(eliminant, lo, hi, rounded)
            solutions.append(rounded(hi))
    return solutions


def solve_n4_system_unequal() -> list[np.ndarray]:
    """All positive roots ``(a1, a3, a4)`` of the unequal-pair system.

    Solved exactly from the stored eliminant, each coordinate rounded
    once; exactly one positive root exists, ``(1, 2, 2)/sqrt(10)``.
    """
    roots = _solve_triangular(_UNEQUAL_ELIMINANT, _UNEQUAL_COORDINATES)
    return [np.array(root) for root in roots]


@dataclass(frozen=True)
class TripleRoot:
    """A positive root of the triple-equal system with its admissibility."""

    a1: float
    a4: float
    admissible: bool

    def to_dict(self) -> dict:
        return {"a1": self.a1, "a4": self.a4, "admissible": self.admissible}


def solve_n4_system_triple() -> list[TripleRoot]:
    """All positive roots ``(a1, a4)`` of the triple-equal system.

    Solved exactly like :func:`solve_n4_system_unequal`.  Each root is
    flagged against the interior bound ``a1 > 1/sqrt(12)``; inadmissible
    roots cannot come from critical directions.
    """
    return [
        TripleRoot(a1=a1, a4=a4, admissible=a1 > INTERIOR_BOUND_TRIPLE)
        for a1, a4 in _solve_triangular(_TRIPLE_ELIMINANT, _TRIPLE_COORDINATES)
    ]
