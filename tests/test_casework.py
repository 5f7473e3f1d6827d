import math
from fractions import Fraction
from itertools import zip_longest

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cube_sections.casework import (
    INTERIOR_BOUND_TRIPLE,
    _TRIPLE_COORDINATES,
    _TRIPLE_ELIMINANT,
    _UNEQUAL_COORDINATES,
    _UNEQUAL_ELIMINANT,
    Case,
    _horner,
    _isolate,
    _n3_cubic,
    _solve_triangular,
    _sturm_chain,
    n3_cyclic_sum,
    n3_identity_check,
    n4_case_balance,
    n4_case_dispatch,
    pairwise_balance,
    solve_n4_system_triple,
    solve_n4_system_unequal,
)
from cube_sections.criticality import criticality_residuals
from cube_sections.weights import InvalidInputError

SQRT10 = math.sqrt(10.0)
SPECIAL = np.array([1.0, 1.0, 2.0, 2.0]) / SQRT10


def unit(v):
    arr = np.asarray(v, dtype=float)
    return arr / np.linalg.norm(arr)


# -- pairwise balance ----------------------------------------------------


def test_pairwise_balance_at_critical_directions():
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(pairwise_balance(SPECIAL, i, j).residual) <= 1e-12
    diag = unit([1.0, 1.0, 1.0])
    assert abs(pairwise_balance(diag, 0, 1).residual) <= 1e-14


def test_pairwise_balance_detects_noncritical():
    a = unit([0.3, 0.5, 0.81])
    assert abs(pairwise_balance(a, 0, 1).residual) >= 1e-3


def test_pairwise_balance_with_an_empty_rest():
    # the rest of (0.6, 0.8, 0) is the zero weight, a point mass at 0, so
    # F(1.4) - F(-0.2) = 1 on the left and F(1.4) - F(0.2) = 0 on the right
    balance = pairwise_balance([0.6, 0.8, 0.0], 0, 1)
    assert balance.lhs == pytest.approx(0.45, rel=1e-14)
    assert balance.rhs == 0.0


def test_pairwise_balance_validation():
    with pytest.raises(InvalidInputError):
        pairwise_balance(unit([1.0, 1.0]), 0, 1)
    with pytest.raises(InvalidInputError):
        pairwise_balance(unit([1.0, 1.0, 1.0]), 1, 1)
    with pytest.raises(InvalidInputError):
        pairwise_balance(unit([1.0, 1.0, 1.0]), 0, 3)
    with pytest.raises(InvalidInputError):
        pairwise_balance(unit([-1.0, 1.0, 1.0]), 0, 1)
    with pytest.raises(InvalidInputError):
        pairwise_balance([1.0, 1.0, 1.0], 0, 1)


# -- three-dimensional casework -------------------------------------------


def test_n3_relation_vanishes_on_diagonal():
    assert _n3_cubic(*unit([1.0, 1.0, 1.0])) == pytest.approx(0.0, abs=1e-15)
    assert _n3_cubic(0.9, 0.2, 0.3) == pytest.approx(
        0.9 + 0.2 - 0.3 - 0.9 * 0.04 - 0.81 * 0.2 - 0.9 * 0.2 * 0.3
    )


def test_n3_cyclic_sum_validation():
    for wrong_length in ([0.5, 0.5], [0.5] * 4):
        with pytest.raises(InvalidInputError):
            n3_cyclic_sum(wrong_length)


@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
@settings(deadline=None)
def test_n3_cyclic_sum_closed_form(coords):
    if not any(coords):
        return
    total, closed = n3_cyclic_sum(coords)
    assert total == pytest.approx(closed, rel=1e-12, abs=1e-13)


@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
@settings(deadline=None)
def test_n3_identity_on_sphere(coords):
    arr = np.asarray(coords)
    if np.linalg.norm(arr) < 1e-3:
        return
    assert abs(n3_identity_check(unit(arr))) <= 1e-12


def test_n3_identity_off_sphere():
    assert n3_identity_check((1.0, 1.0, 1.0)) == pytest.approx(4.0)


# -- four-dimensional case dispatch ---------------------------------------

CASE_POINTS = {
    Case.A: unit([1.0, 1.2, 1.5, 2.0]),
    Case.B: unit([0.5, 2.0, 1.9, 2.0]),
    Case.C: unit([1.8, 2.0, 0.5, 2.0]),
    Case.D: unit([1.0, 2.0, 1.2, 1.4]),
}


def test_case_dispatch_interior_points():
    for case, b in CASE_POINTS.items():
        assert n4_case_dispatch(b) == (case,)


def test_case_dispatch_full_boundary():
    b = np.array([1.0, 2.0, 1.0, 2.0]) / SQRT10
    assert set(n4_case_dispatch(b)) == set(Case)


def test_case_validation():
    with pytest.raises(InvalidInputError):
        n4_case_dispatch(unit([1.0, 1.0, 1.0]))
    with pytest.raises(InvalidInputError):
        n4_case_dispatch(unit([2.0, 1.0, 1.0, 2.0]))  # b1 > b2
    with pytest.raises(InvalidInputError):
        n4_case_dispatch([1.0, 2.0, 1.0, 2.0])  # not unit
    with pytest.raises(InvalidInputError):
        n4_case_balance(CASE_POINTS[Case.D], Case.A)


def test_case_balances_match_pairwise_residual():
    # renormalized case polynomial == lhs - rhs of the (b1, b2) balance
    for case, b in CASE_POINTS.items():
        direct = pairwise_balance(b, 0, 1).residual
        assert n4_case_balance(b, case) == pytest.approx(
            direct, rel=1e-10, abs=1e-13
        )


def test_case_balances_agree_on_region_boundary():
    # s2 = 0 with s1 > 0 before normalization; afterwards the point sits
    # within one ulp of the A/B boundary, where both balances must agree
    b = unit([0.8, 1.4, 1.0, 1.6])
    va = n4_case_balance(b, Case.A)
    vb = n4_case_balance(b, Case.B)
    assert va == pytest.approx(vb, rel=1e-10, abs=1e-13)
    assert abs(va) > 1e-6  # boundary point but not critical


def test_case_residuals_vanish_at_special_direction():
    b = np.sort(SPECIAL)
    tags = n4_case_dispatch(b)
    assert Case.A in tags and Case.B in tags
    assert n4_case_balance(b, Case.A) == pytest.approx(0.0, abs=1e-15)
    assert n4_case_balance(b, Case.B) == pytest.approx(0.0, abs=1e-15)


# -- polynomial systems ----------------------------------------------------


# the two systems in any exact or multiprecision arithmetic
def unequal_system(a1, a3, a4):
    u = 2 * a1 + a3 - a4
    return [
        (a1 + a3 + a4) * a4 - 1,
        2 * a1**2 + a3**2 + a4**2 - 1,
        u**2 * (1 + a1 * a3) - 8 * a1**2 * a3 * (a1 + a3),
    ]


def triple_system(a1, a4):
    return [
        3 * a1**2 + a4**2 - 1,
        8 * a1**3 * (1 - a4**2) - (3 * a1 - a4) ** 2 * (a1 + a4) * (1 - a1 * a4),
    ]


def test_unequal_system_at_known_root():
    root = np.array([1.0, 2.0, 2.0]) / SQRT10
    np.testing.assert_allclose(unequal_system(*root), 0.0, atol=1e-15)


def test_solve_unequal_system():
    roots = solve_n4_system_unequal()
    assert len(roots) == 1
    np.testing.assert_allclose(
        roots[0], np.array([1.0, 2.0, 2.0]) / SQRT10, atol=1e-12
    )
    with mpmath.workdps(50):
        exact = [c / mpmath.sqrt(10) for c in (1, 2, 2)]
        assert all(abs(x - e) <= math.ulp(x) for x, e in zip(roots[0], exact))
    # and the root really is the non-diagonal critical direction
    a = np.array([roots[0][0], roots[0][0], roots[0][1], roots[0][2]])
    assert criticality_residuals(a).verdict == "critical"


def test_triple_system_at_known_root():
    np.testing.assert_allclose(triple_system(0.5, 0.5), 0.0, atol=1e-15)


def test_solve_triple_system():
    roots = solve_n4_system_triple()
    assert len(roots) == 2
    by_a1 = sorted(roots, key=lambda r: r.a1)
    low, high = by_a1
    assert high.a1 == pytest.approx(0.5, abs=1e-12)
    assert high.a4 == pytest.approx(0.5, abs=1e-12)
    assert high.admissible
    assert low.a1 == pytest.approx(0.24805145165305015, abs=1e-10)
    assert low.a4 == pytest.approx(0.903001346620504, abs=1e-10)
    assert not low.admissible
    assert low.a1 < INTERIOR_BOUND_TRIPLE < high.a1
    for root in roots:
        np.testing.assert_allclose(triple_system(root.a1, root.a4), 0.0, atol=1e-12)
    payload = high.to_dict()
    assert payload == {"a1": high.a1, "a4": high.a4, "admissible": True}
    with mpmath.workdps(50):
        exact_low = mpmath.findroot(triple_system, (low.a1, low.a4))
        for root, exact in ((low, exact_low), (high, (0.5, 0.5))):
            for x, e in zip((root.a1, root.a4), exact):
                assert abs(x - e) <= math.ulp(x)


@pytest.mark.parametrize(
    "system, names, eliminant, coordinates",
    [
        (unequal_system, "a1 a3 a4", _UNEQUAL_ELIMINANT, _UNEQUAL_COORDINATES),
        (triple_system, "a1 a4", _TRIPLE_ELIMINANT, _TRIPLE_COORDINATES),
    ],
)
def test_stored_bases_are_the_sympy_lex_bases(system, names, eliminant, coordinates):
    import sympy as sp

    unknowns = sp.symbols(names)
    # the stored eliminant is squarefree and, up to a constant and a power
    # of a1, the univariate element of the lex basis (a4 > a3 > a1)
    a1 = unknowns[0]
    basis = sp.groebner(system(*unknowns), *reversed(unknowns), order="lex")
    stored = sp.Poly(eliminant, a1)
    assert sp.gcd(stored, stored.diff(a1)).is_ground
    (univariate,) = [g for g in basis.exprs if g.free_symbols == {a1}]
    quotient, remainder = sp.div(sp.Poly(univariate, a1), stored)
    assert remainder.is_zero and len(quotient.terms()) == 1

    # each other coordinate is pinned by a basis element linear in it whose
    # leading coefficient vanishes only at a1 = 0 ...
    for v in unknowns[1:]:
        linear = [sp.Poly(g, v) for g in basis.exprs if sp.Poly(g, v).degree() == 1]
        assert any(
            p.LC().free_symbols <= {a1} and len(sp.Poly(p.LC(), a1).terms()) == 1
            for p in linear
        )
    # ... and the stored back-substitution solves the whole basis at every
    # root of the stored eliminant
    point = {
        v: sp.Poly(num, a1).as_expr() / den
        for v, (num, den) in zip(unknowns, coordinates)
    }
    for g in basis.exprs:
        assert sp.Poly(sp.expand(g.subs(point)), a1).rem(stored).is_zero


dyadic_or_rational = st.one_of(
    st.integers(1, 63).map(lambda k: Fraction(k, 64)),
    st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(
        lambda r: 0 < r < 1
    ),
)


@given(st.lists(dyadic_or_rational, min_size=1, max_size=6, unique=True))
@settings(deadline=None, max_examples=60)
def test_exact_isolation_rounds_every_root_correctly(roots):
    poly = [1]
    for r in roots:  # times (q x - p)
        q, p = r.denominator, r.numerator
        poly = [q * c - p * d for c, d in zip(poly + [0], [0] + poly)]
    got = _solve_triangular(poly, [((1, 0), 1)])
    assert got == [(float(r),) for r in sorted(roots)]


def _fraction_horner(poly, x: Fraction) -> Fraction:
    value = Fraction(0)
    for c in poly:
        value = value * x + c
    return value


def _fraction_sturm_chain(poly):
    """The Sturm chain in ``Fraction`` arithmetic, or ``None`` unless squarefree."""
    degree = len(poly) - 1
    chain = [
        [Fraction(c) for c in poly],
        [Fraction(c * (degree - i)) for i, c in enumerate(poly[:-1])],
    ]
    while len(chain[-1]) > 1:
        rem, den = chain[-2], chain[-1]
        while len(rem) >= len(den):
            q = rem[0] / den[0]
            rem = [r - q * d for r, d in zip_longest(rem, den, fillvalue=0)][1:]
        while rem and not rem[0]:
            rem = rem[1:]
        if not rem:
            return None
        chain.append([-r for r in rem])
    return chain


@given(
    st.lists(st.one_of(st.just(0), st.integers(-60, 60)), min_size=2, max_size=13).filter(
        lambda p: p[0] != 0
    ),
    st.one_of(
        st.fractions(min_value=-2, max_value=2, max_denominator=10**6),
        st.integers(-(2**40), 2**40).map(lambda k: Fraction(k, 2**40)),
    ),
)
@settings(deadline=None, max_examples=200)
def test_integer_horner_and_chain_are_fraction_multiples(poly, x):
    # the integer Horner value is q^d p(x), and each integer chain member a
    # positive multiple of the rational one, so every sign count agrees;
    # sparse polynomials make remainders that drop several degrees
    want = _fraction_sturm_chain(poly)
    assume(want is not None)
    assert _horner(poly, x) == _fraction_horner(poly, x) * x.denominator ** (len(poly) - 1)
    chain = _sturm_chain(poly)
    assert len(chain) == len(want)
    for member, rational in zip(chain, want):
        assert all(isinstance(c, int) for c in member)
        ratio = member[0] / rational[0]
        assert ratio > 0 and [ratio * c for c in rational] == member
        value = _horner(member, x)
        assert value == ratio * _fraction_horner(rational, x) * x.denominator ** (len(member) - 1)


def test_stated_triple_root_is_provably_not_a_root():
    # criterion 06 quotes a1 = 0.2142; the triple eliminant has no root near it
    chain = _sturm_chain(_TRIPLE_ELIMINANT)
    lo, hi = Fraction("0.2137"), Fraction("0.2147")
    assert _isolate(chain, lo, hi) == []
    assert _horner(_TRIPLE_ELIMINANT, lo) != 0
    # its positive roots: the rejected one, 1/2, and 0.5592 where a4 < 0
    assert len(_isolate(chain, Fraction(0), Fraction(1))) == 3


def test_interior_bound_value():
    assert INTERIOR_BOUND_TRIPLE == pytest.approx(1.0 / math.sqrt(12.0), rel=1e-15)

