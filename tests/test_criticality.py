import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cube_sections.criticality import (
    DEFAULT_CRITICALITY_TOL,
    ConeBalance,
    _corner_rows,
    _sinc_rows,
    cone_balance,
    criticality_residuals,
    grad_sinc_product_integral,
    sinc_product_integral,
)
from cube_sections.density import MAX_CLOSED_FORM_WEIGHTS, density_at
from cube_sections.sections import normalized_section
from cube_sections.weights import InvalidInputError

smooth_st = st.lists(
    st.floats(0.3, 1.0, allow_nan=False), min_size=3, max_size=5
).map(np.asarray)


def clears_kinks(a, margin=1e-3):
    """True when no signed coordinate sum comes near zero.

    The integrand's density is piecewise polynomial in the weights with
    kinks on the hyperplanes ``sum_i s_i a_i = 0``; finite differences
    straddling one are meaningless.
    """
    for signs in itertools.product((-1.0, 1.0), repeat=len(a)):
        if abs(float(np.dot(signs, a))) < margin:
            return False
    return True


def fd_grad(a, h=1e-6):
    a = np.asarray(a, dtype=float)
    out = np.zeros_like(a)
    for k in range(a.size):
        step = np.zeros_like(a)
        step[k] = h
        out[k] = (
            sinc_product_integral(a + step) - sinc_product_integral(a - step)
        ) / (2.0 * h)
    return out


# -- the integral and its gradient --------------------------------------


def test_integral_values():
    assert sinc_product_integral((1.0,)) == pytest.approx(math.pi, rel=1e-14)
    assert sinc_product_integral((1.0, 1.0, 1.0)) == pytest.approx(
        3.0 * math.pi / 4.0, rel=1e-13
    )


@given(smooth_st, st.floats(0.5, 4.0))
@settings(deadline=None)
def test_integral_homogeneity(a, c):
    assert sinc_product_integral(c * a) == pytest.approx(
        sinc_product_integral(a) / c, rel=1e-12
    )


@given(smooth_st)
@settings(deadline=None)
def test_euler_relation(a):
    # degree -1 homogeneity forces <a, grad I> = -I
    lhs = float(a @ grad_sinc_product_integral(a))
    assert lhs == pytest.approx(-sinc_product_integral(a), rel=1e-10)


@given(smooth_st)
@settings(deadline=None, max_examples=40)
def test_gradient_matches_finite_differences(a):
    assume(clears_kinks(a))
    grad = grad_sinc_product_integral(a)
    np.testing.assert_allclose(grad, fd_grad(a), rtol=1e-5, atol=1e-7)


@given(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6))
@settings(deadline=None, max_examples=40)
def test_gradient_scales_exactly(a):
    # degree -2: an exact power-of-two scale comes out exactly, 2^-500 too,
    # whose corner products underflow
    a = np.array(a)
    np.testing.assert_array_equal(grad_sinc_product_integral(2.0**-500 * a), 2.0**1000 * grad_sinc_product_integral(a))


def test_gradient_at_extreme_scales():
    # at (c, c, c) every partial is -pi / (4 c^2); it was NaN at 1e200 and
    # 1e-150 and 0 at 1e150, and beyond the float range it is -inf or -0
    for c in (1e-150, 1e150):
        np.testing.assert_allclose(grad_sinc_product_integral([c] * 3), -math.pi / 4 / c / c, rtol=1e-14)
    np.testing.assert_array_equal(grad_sinc_product_integral([1e-200] * 3), -np.inf)
    np.testing.assert_array_equal(grad_sinc_product_integral([1e200] * 3), 0.0)


def test_gradient_zero_coordinate():
    g = grad_sinc_product_integral((1.0, 0.0, 1.0, 1.0))
    assert g[1] == 0.0


# -- the corner-table kernel ---------------------------------------------

signed_st = st.integers(3, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0.3, 1.0, allow_nan=False), min_size=n, max_size=n),
        st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n),
    )
).map(lambda pair: np.asarray(pair[0]) * np.asarray(pair[1]))


@pytest.mark.parametrize(
    "a,expected",
    [
        # one live weight: the reduced sum is the point mass at 0
        ((1.0, 0.0, 0.0), (-math.pi, 0.0, 0.0)),
        # two live weights: the reduced density is a box, read
        # right-continuously at its edge
        ((1.0, 1.0), (-2.0 * math.pi, -2.0 * math.pi)),
        ((0.0, 1.0, 1.0), (0.0, -2.0 * math.pi, -2.0 * math.pi)),
        ((1.0, 1.0, 2.0), (0.0, 0.0, -1.5 * math.pi)),
    ],
)
def test_gradient_at_kinks(a, expected):
    u = np.asarray(a) / np.linalg.norm(a)
    np.testing.assert_allclose(
        grad_sinc_product_integral(u), expected, rtol=1e-13, atol=1e-13
    )


def test_single_weight_value():
    assert _sinc_rows(np.array([[0.0, 2.0, 0.0]])).value[0] == pytest.approx(
        math.pi / 2.0, rel=1e-15
    )


@pytest.mark.parametrize(
    "a", [(0.3, 1.0), (-0.8, 0.5), (0.2, 0.5, 0.6), (1.0, -1.0, 1.5)]
)
def test_low_dimension_hessian_finite(a):
    hess = _sinc_rows(np.array([a]), hessian=True).hessian[0]
    assert hess.shape == (len(a), len(a))
    assert np.all(np.isfinite(hess))


@given(signed_st, st.integers(0, 2))
@settings(deadline=None, max_examples=40)
def test_hessian_matches_finite_differences(a, zeros):
    # zero coordinates ahead of the live ones: I is even in each, so only
    # the transverse second derivative survives in its row and column; the
    # gradient's central differences into a zero coordinate step 1e-3,
    # since a live weight of 1e-6 would drown the corner sums in rounding
    assume(clears_kinks(a))
    a = np.concatenate([np.zeros(zeros), a])
    steps = np.where(a == 0.0, 1e-3, 1e-6)
    fd = np.array(
        [
            (_sinc_rows((a + h * e)[None]).grad[0] - _sinc_rows((a - h * e)[None]).grad[0]) / (2.0 * h)
            for h, e in zip(steps, np.eye(a.size))
        ]
    )
    hess = _sinc_rows(a[None], hessian=True).hessian[0]
    tol = np.where(np.diag(steps) > 1e-6, 1e-4, 1e-6) * np.max(np.abs(hess))
    assert np.all(np.abs(hess - fd) <= tol)
    assert np.all(hess[:zeros, zeros:] == 0.0)


@given(signed_st)
@settings(deadline=None)
def test_gradient_matches_reduced_densities(a):
    # an independent path: one density evaluation per deleted coordinate
    total = 2.0 * math.pi * density_at(a, 0.0)
    expected = np.array(
        [
            (2.0 * math.pi * density_at(np.delete(a, k), a[k]) - total) / a[k]
            for k in range(a.size)
        ]
    )
    np.testing.assert_allclose(
        grad_sinc_product_integral(a),
        expected,
        rtol=0.0,
        atol=1e-12 * np.max(np.abs(expected)),
    )


@given(signed_st)
@settings(deadline=None)
def test_hessian_euler_relation(a):
    # the gradient is homogeneous of degree -2, so H a = -2 grad I
    assume(clears_kinks(a))
    table = _sinc_rows(a[None], hessian=True)
    hess, grad = table.hessian[0], table.grad[0]
    scale = np.max(np.abs(hess) @ np.abs(a))
    np.testing.assert_allclose(hess @ a, -2.0 * grad, rtol=0.0, atol=1e-12 * scale)


def test_corner_rows_do_not_depend_on_the_batch():
    # at m = 10 the corner budget holds 102 rows, so 120 rows take two
    # passes; every row must come out bitwise as it does alone
    w = np.random.default_rng(0).uniform(0.2, 1.0, size=(120, 10))
    together = _corner_rows(w, hessian=True)
    for i in (0, 50, 101, 102, 119):
        alone = _corner_rows(w[i : i + 1], hessian=True)
        for got, want in zip(together, alone):
            np.testing.assert_array_equal(got[i], want[0])


# -- residual reports ----------------------------------------------------


def test_interior_condition():
    assert criticality_residuals((1.0, 1.0, 1.0)).interior
    assert criticality_residuals((1.0, 1.0, 1.9)).interior
    assert not criticality_residuals((1.0, 1.0, 2.0)).interior
    assert not criticality_residuals((1.0, 0.0, 0.0)).interior
    assert not criticality_residuals((1.0, 1.0, 0.0)).interior


@pytest.mark.parametrize(
    "a",
    [
        (1.0, 1.0, 1.0),
        (1.0, 1.0, 1.0, 1.0),
        (1.0, 1.0, 2.0, 2.0),
        (1.0, 1.0, 1.0, 1.0, 1.0),
    ],
)
def test_known_critical_directions(a):
    report = criticality_residuals(a)
    assert report.verdict == "critical"
    assert report.max_residual <= 1e-10
    assert report.sigma == pytest.approx(normalized_section(a), rel=1e-13)
    assert report.lagrange_multiplier == -report.sigma


def test_special_direction_report_values():
    report = criticality_residuals((1.0, 1.0, 2.0, 2.0))
    assert report.sigma == pytest.approx(
        5.0 * math.sqrt(10.0) * math.pi / 12.0, rel=1e-13
    )
    assert report.mu == pytest.approx(
        4.0 * report.sigma / (3.0 * math.pi), rel=1e-14
    )
    assert report.interior
    assert report.reduction_note is None


def test_degenerate_verdicts():
    assert criticality_residuals((0.0, 1.0, 0.0)).verdict == "degenerate-min"
    assert criticality_residuals((3.0, 3.0)).verdict == "degenerate-max"
    report = criticality_residuals((1.0, 1.0, 0.0))
    assert report.verdict == "degenerate-max"
    assert report.residuals is None
    assert report.max_residual is None
    assert "2-dimensional" in report.reduction_note
    # a coordinate below the relative floor is one the kernel drops, so
    # the report reads as at its exact-zero twin, sigma included
    for dust, twin in (((1.0, 1.0, 1e-15), (1.0, 1.0, 0.0)), ((1.0, 1e-15), (1.0, 0.0))):
        got, want = criticality_residuals(dust), criticality_residuals(twin)
        assert got.verdict == want.verdict
        assert got.interior == want.interior
        assert got.reduction_note == want.reduction_note
        assert got.residuals is None and got.max_residual is None
        assert got.sigma == want.sigma


def test_reduction_note_and_zero_residual():
    report = criticality_residuals((1.0, 1.0, 1.0, 0.0))
    assert report.verdict == "critical"
    assert report.residuals[3] == 0.0
    assert "3-dimensional" in report.reduction_note
    assert report.interior


def test_generic_direction_not_critical():
    report = criticality_residuals((0.2, 0.5, 0.6))
    assert report.verdict == "not-critical"
    assert report.max_residual >= 1e-3


@given(smooth_st)
@settings(deadline=None)
def test_residuals_consistent_with_gradient(a):
    # residual_k = -a_k (dI/da_k + sigma a_k) / sigma on the unit sphere
    u = np.asarray(a) / np.linalg.norm(a)
    report = criticality_residuals(u)
    grad = grad_sinc_product_integral(u)
    sigma = report.sigma
    expected = u * (grad + sigma * u) / sigma
    np.testing.assert_allclose(report.residuals, expected, rtol=1e-9, atol=1e-12)


def test_tolerance_parameter():
    a = (1.0, 1.0, 2.0, 2.0 + 1e-4)
    strict = criticality_residuals(a, tol=1e-12)
    loose = criticality_residuals(a, tol=1e-2)
    assert strict.verdict == "not-critical"
    assert loose.verdict == "critical"
    assert DEFAULT_CRITICALITY_TOL == 1e-9


def test_report_serializes():
    payload = json.loads(json.dumps(criticality_residuals((1.0, 1.0, 1.0)).to_dict()))
    assert payload["verdict"] == "critical"
    assert payload["lambda"] == -payload["sigma"]
    degenerate = json.loads(json.dumps(criticality_residuals((1.0, 0.0)).to_dict()))
    assert degenerate["residuals"] is None
    assert degenerate["verdict"] == "degenerate-min"


# -- cone balance ---------------------------------------------------------


def test_cone_balance_at_critical():
    balance = cone_balance((1.0, 1.0, 1.0))
    assert isinstance(balance, ConeBalance)
    np.testing.assert_allclose(balance.ratios, 3.0 * math.sqrt(3.0) / 4.0, rtol=1e-13)
    assert balance.spread <= 1e-12
    report = criticality_residuals((1.0, 1.0, 2.0, 2.0))
    balance = cone_balance((1.0, 1.0, 2.0, 2.0))
    assert balance.mu_hat == pytest.approx(report.mu, rel=1e-12)
    assert balance.spread <= 1e-10


def test_cone_balance_away_from_critical():
    assert cone_balance((0.3, 0.4, 0.866)).spread >= 1e-3


def test_cone_balance_errors():
    with pytest.raises(InvalidInputError):
        cone_balance((1.0,))
    with pytest.raises(InvalidInputError):
        cone_balance((1.0, 0.0, 0.0))


def test_cone_balance_rejects_rests_past_the_closed_form():
    # every rest of n = MAX + 2 equal weights has MAX + 1 of them
    with pytest.raises(InvalidInputError, match="nonzero weights"):
        cone_balance(np.ones(MAX_CLOSED_FORM_WEIGHTS + 2))
