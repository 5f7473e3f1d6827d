import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cube_sections.casework import (
    INTERIOR_BOUND_TRIPLE,
    Case,
    _dedup,
    gaussian_heuristic,
    gaussian_heuristic_match,
    n3_cyclic_sum,
    n3_identity_check,
    n3_relation,
    n4_case_balance,
    n4_case_dispatch,
    n4_case_residual,
    n4_system_triple_equations,
    n4_system_unequal_equations,
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
    assert n3_relation(unit([1.0, 1.0, 1.0])) == pytest.approx(0.0, abs=1e-15)


def test_n3_relation_validation():
    with pytest.raises(InvalidInputError):
        n3_relation(unit([1.0, 1.0]))
    with pytest.raises(InvalidInputError):
        n3_relation(unit([0.8, 0.5, 0.33]))  # unordered
    with pytest.raises(InvalidInputError):
        n3_relation([0.2, 0.3, 0.4])  # not unit
    with pytest.raises(InvalidInputError):
        n3_relation(unit([1.0, 1.0, 2.0]))  # boundary of interior cone
    assert n3_relation((0.9, 0.2, 0.3), validate=False) == pytest.approx(
        0.9 + 0.2 - 0.3 - 0.9 * 0.04 - 0.81 * 0.2 - 0.9 * 0.2 * 0.3
    )


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
        n4_case_residual(CASE_POINTS[Case.D], Case.A)


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
    assert n4_case_residual(b, Case.A, factored=True) == pytest.approx(0.0, abs=1e-15)
    assert n4_case_residual(b, Case.B) == pytest.approx(0.0, abs=1e-15)


# -- polynomial systems ----------------------------------------------------


def test_unequal_system_at_known_root():
    root = np.array([1.0, 2.0, 2.0]) / SQRT10
    np.testing.assert_allclose(
        n4_system_unequal_equations(root), 0.0, atol=1e-15
    )


def test_solve_unequal_system():
    roots = solve_n4_system_unequal()
    assert len(roots) == 1
    np.testing.assert_allclose(
        roots[0], np.array([1.0, 2.0, 2.0]) / SQRT10, atol=1e-12
    )
    # and the root really is the non-diagonal critical direction
    a = np.array([roots[0][0], roots[0][0], roots[0][1], roots[0][2]])
    assert criticality_residuals(a).verdict == "critical"


def _dedup_loop(points, tol):
    roots = []
    for p in points:
        if not any(np.max(np.abs(p - r)) <= tol for r in roots):
            roots.append(p)
    roots.sort(key=lambda r: tuple(r))
    return roots


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 60),
    st.integers(1, 3),
    st.sampled_from([1e-9, 0.05, 0.3]),
)
@settings(deadline=None, max_examples=60)
def test_dedup_matches_the_greedy_loop(seed, count, dim, tol):
    # clustered points, so kept roots shadow later points of other clusters
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 1.0, (4, dim))
    points = centres[rng.integers(0, 4, count)] + rng.uniform(-0.2, 0.2, (count, dim))
    points[rng.random(count) < 0.1] = np.nan
    got, want = _dedup(points, tol), _dedup_loop(points, tol)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_triple_system_at_known_root():
    np.testing.assert_allclose(
        n4_system_triple_equations((0.5, 0.5)), 0.0, atol=1e-15
    )


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
        np.testing.assert_allclose(
            n4_system_triple_equations((root.a1, root.a4)), 0.0, atol=1e-12
        )
    payload = high.to_dict()
    assert payload == {"a1": high.a1, "a4": high.a4, "admissible": True}


def test_interior_bound_value():
    assert INTERIOR_BOUND_TRIPLE == pytest.approx(1.0 / math.sqrt(12.0), rel=1e-15)


# -- Gaussian surrogate ------------------------------------------------------


def test_gaussian_heuristic_value():
    from scipy.stats import norm

    expected = (0.75 / 0.5) * (norm.cdf(1.0) - norm.cdf(0.0))
    assert gaussian_heuristic(0.5, 1.0) == pytest.approx(expected, rel=1e-12)


def test_gaussian_heuristic_validation():
    with pytest.raises(InvalidInputError):
        gaussian_heuristic(0.0, 1.0)
    with pytest.raises(InvalidInputError):
        gaussian_heuristic(1.0, 1.0)
    with pytest.raises(InvalidInputError):
        gaussian_heuristic_match(1.5)


@given(st.floats(0.05, 0.95))
@settings(deadline=None, max_examples=25)
def test_gaussian_heuristic_forces_equality(a1):
    assert gaussian_heuristic_match(a1) == pytest.approx(a1, abs=1e-8)
