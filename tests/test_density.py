import contextlib
import math
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from cube_sections import density, sections
from cube_sections.density import (
    EXACT_CORNER_WEIGHTS,
    MAX_CLOSED_FORM_WEIGHTS,
    _compensated_sum,
    _corner_shifts,
    _density_and_spread,
    _facet_marginals,
    _facet_sums,
    _truncated_power_sums,
    cdf_at,
    density_at,
    density_by_convolution,
    density_closed_form,
)
from cube_sections.weights import RELATIVE_WEIGHT_FLOOR, InvalidInputError
from fraction_reference import corner_sum

weights_st = st.lists(
    st.floats(0.05, 3.0, allow_nan=False), min_size=1, max_size=7
)


def _confluence_factor(w) -> float:
    # corner sums divide by the product of the weights, so cancellation in
    # O(1) outputs is amplified by prod(max|w| / |w_i|) when several small
    # weights coincide; tolerances on exact identities scale with this
    b = np.abs(np.asarray(w, dtype=float))
    return float(np.prod(np.max(b) / b))


# -- frozen values -----------------------------------------------------


def test_box_density():
    f = density_closed_form((2.0,))
    assert f.support == (-2.0, 2.0)
    assert f(0.0) == pytest.approx(0.25)
    assert f(1.99) == pytest.approx(0.25)
    assert f(2.01) == 0.0


def test_triangle_values():
    f = density_closed_form((1.0, 1.0))
    assert f(0.0) == pytest.approx(0.5)
    assert f(2.0) == 0.0
    assert f(-1.0) == pytest.approx(0.25)


def test_three_and_four_weight_centers():
    assert density_at((1.0, 1.0, 1.0), 0.0) == pytest.approx(3.0 / 8.0, rel=1e-14)
    assert density_at((1.0, 1.0, 1.0, 1.0), 0.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert density_at((1.0, 1.0, 2.0, 2.0), 0.0) == pytest.approx(5.0 / 24.0, rel=1e-13)


def test_triangle_cdf_value():
    f = density_closed_form((1.0, 1.0))
    assert f.cumulative(1.0) == pytest.approx(7.0 / 8.0, rel=1e-14)
    assert cdf_at((1.0, 1.0), 1.0) == pytest.approx(7.0 / 8.0, rel=1e-14)


def test_sign_and_zero_weights_are_dropped():
    f = density_closed_form((-1.0, 0.0, 1.0))
    g = density_closed_form((1.0, 1.0))
    np.testing.assert_array_equal(f.breakpoints, g.breakpoints)
    np.testing.assert_array_equal(f.coefficients, g.coefficients)


def test_dust_weight_is_dropped():
    # a weight under the ulp of the span must not poison the expansion
    assert density_at((1.0, 1e-20), 0.0) == pytest.approx(0.5, rel=1e-14)
    assert density_at((1e-20, 0.70721, 0.70701), 0.0) == pytest.approx(
        density_at((0.70721, 0.70701), 0.0), rel=1e-12
    )


def test_errors():
    with pytest.raises(InvalidInputError):
        density_closed_form((0.0, 0.0))
    with pytest.raises(InvalidInputError):
        density_at(np.ones(MAX_CLOSED_FORM_WEIGHTS + 1), 0.0)
    with pytest.raises(InvalidInputError):
        _density_and_spread(np.ones(MAX_CLOSED_FORM_WEIGHTS + 1), 0.5)


# -- structural invariants ---------------------------------------------


@given(weights_st)
@settings(deadline=None)
def test_normalization(w):
    f = density_closed_form(w)
    assert abs(f.total_integral - 1.0) <= 1e-13 * max(1.0, _confluence_factor(w))


@given(weights_st)
@settings(deadline=None)
def test_support_and_breakpoint_symmetry(w):
    f = density_closed_form(w)
    total = float(np.sum(np.abs(w)))
    lo, hi = f.support
    assert lo == pytest.approx(-total, rel=1e-13)
    assert hi == pytest.approx(total, rel=1e-13)
    np.testing.assert_array_equal(f.breakpoints, -f.breakpoints[::-1])


@given(weights_st, st.floats(-0.99, 0.99))
@settings(deadline=None)
def test_evenness(w, frac):
    f = density_closed_form(w)
    x = frac * float(np.sum(np.abs(w)))
    if np.min(np.abs(f.breakpoints - x)) < 1e-9 or np.min(np.abs(f.breakpoints + x)) < 1e-9:
        return
    left, right = f(x), f(-x)
    assert left == pytest.approx(right, rel=1e-13, abs=1e-15)


@given(weights_st, st.floats(-1.2, 1.2))
@settings(deadline=None)
def test_density_nonnegative(w, frac):
    x = frac * float(np.sum(np.abs(w)))
    assert density_at(w, x) >= -1e-13


@given(weights_st, st.sampled_from([0.5, 2.0, 10.0]), st.floats(-0.9, 0.9))
@settings(deadline=None)
def test_scale_covariance(w, c, frac):
    # abs floor covers cancellation noise at skewed weight ratios
    r = frac * float(np.sum(np.abs(w)))
    scaled = [c * v for v in w]
    assert density_at(scaled, c * r) == pytest.approx(
        density_at(w, r) / c, rel=1e-12, abs=1e-12
    )


def test_scale_covariance_reference_weights():
    w = (1.0, 1.0, 2.0, 2.0)
    for c in (0.5, 2.0, 10.0):
        scaled = tuple(c * v for v in w)
        for r in (0.0, 0.5, 1.7, 4.0):
            assert density_at(scaled, c * r) == pytest.approx(
                density_at(w, r) / c, rel=1e-12
            )


@settings(deadline=None, max_examples=100)
@given(
    st.lists(st.floats(0.05, 3.0), min_size=1, max_size=8),
    st.lists(st.floats(-1.05, 1.05), min_size=5, max_size=20),
)
def test_closed_form_equals_convolution(w, fracs):
    f = density_closed_form(w)
    g = density_by_convolution(w)
    total = float(np.sum(np.abs(w)))
    peak = max(float(np.max(np.abs(f.coefficients))), 1.0)
    for frac in fracs:
        x = frac * total
        assert abs(f(x) - g(x)) <= 1e-10 * peak


@pytest.mark.parametrize("m", [9, 10])
def test_closed_form_above_eight_weights(m):
    # the pieces are exact rationals rounded once at every size: normalized,
    # on the convolution density, and each local coefficient the Taylor
    # coefficient f^(i)(mid) / i! of the exact corner sum
    rng = np.random.default_rng(600 + m)
    w = rng.uniform(0.25, 1.0, m)
    f = density_closed_form(w)
    assert abs(f.total_integral - 1.0) <= 1e-13
    g = density_by_convolution(w)
    xs = np.linspace(-1.05, 1.05, 401) * float(np.sum(w))
    peak = max(float(np.max(np.abs(f.coefficients))), 1.0)
    assert np.max(np.abs(f(xs) - g(xs))) <= 1e-10 * peak
    j = f.midpoints.size // 3
    mid = float(f.midpoints[j])
    want = [float(corner_sum(w, mid, m - 1 - i) / math.factorial(i)) for i in range(m)]
    assert f.coefficients[j].tolist() == want


def test_convolution_agreement_dense_grid():
    w = (1.0, 1.0, 2.0, 2.0)
    f = density_closed_form(w)
    g = density_by_convolution(w)
    xs = np.linspace(-6.5, 6.5, 1000)
    assert np.max(np.abs(f(xs) - g(xs))) <= 1e-12


@given(weights_st, st.floats(-1.1, 1.1))
@settings(deadline=None)
def test_point_evaluators_match_pieces(w, frac):
    f = density_closed_form(w)
    x = frac * float(np.sum(np.abs(w)))
    assert density_at(w, x) == pytest.approx(float(f(x)), rel=1e-10, abs=1e-12)
    assert cdf_at(w, x) == pytest.approx(float(f.cumulative(x)), rel=1e-10, abs=1e-12)


@given(
    st.lists(st.floats(0.05, 3.0), min_size=1, max_size=6),
    st.lists(st.floats(1e-9, 1e-3), min_size=1, max_size=2),
    st.floats(-1.0, 1.0),
)
@settings(deadline=None, max_examples=60)
def test_point_evaluators_exact_with_tiny_weights(big, tiny, frac):
    # tiny weights beside ordinary ones make the alternating corner sum
    # cancel; up to 8 weights the evaluators must still round the exact sum
    w = big + tiny
    x = frac * float(np.sum(w))
    m = len(w)
    assert density_at(w, x) == float(corner_sum(w, x, m - 1))
    assert cdf_at(w, x) == float(corner_sum(w, x, m))


def test_density_at_tiny_weight_direction():
    # two weights of 1e-8 beside (0.6, 0.8): the density at 0 is the
    # two-weight triangle's 0.625 up to O(1e-16)
    assert density_at((1e-8, 1e-8, 0.6, 0.8), 0.0) == float(corner_sum((1e-8, 1e-8, 0.6, 0.8), 0.0, 3))
    assert density_at((1e-8, 1e-8, 0.6, 0.8), 0.0) == pytest.approx(0.625, rel=1e-15)


@st.composite
def dominant_rows(draw):
    """2..20 weights whose largest is the sum of the others, or an ulp or more off it, and a point.

    The peak ties the float sum of the others, or is a few ulps to either
    side of it, or up to three times it; the point is 0, the plateau edge
    ``peak - others`` or a float next to it, or inside the plateau.
    """
    m = draw(st.integers(2, MAX_CLOSED_FORM_WEIGHTS))
    others = draw(
        st.lists(
            st.one_of(st.floats(1e-6, 1.0), st.integers(1, 4).map(float)),
            min_size=m - 1,
            max_size=m - 1,
        )
    )
    peak = math.fsum(others)
    steps = draw(st.integers(-3, 3))
    for _ in range(abs(steps)):
        peak = math.nextafter(peak, math.copysign(math.inf, steps))
    peak *= draw(st.sampled_from((1.0, 1.0, 1.0, 1.5, 3.0)))
    edge = float(Fraction(peak) - sum(map(Fraction, others)))
    r = draw(
        st.sampled_from(
            (0.0, edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf), 0.5 * edge)
        )
    )
    return [peak, *others], draw(st.sampled_from((r, -r)))


@given(dominant_rows())
@example(([1.0, 1.0], 0.0))
@example(([2.0, 1.0, 1.0], 0.0))
@example(([3.0, 1.0, 1.0, 1.0], 0.0))
@example(([math.nextafter(3.0, 0.0), 1.0, 1.0, 1.0], 0.0))
@example(([math.nextafter(3.0, 4.0), 1.0, 1.0, 1.0], 0.0))
@example(([4.0, 1.0, 1.0, 1.0], 1.0))
@example(([4.0, 1.0, 1.0, 1.0], math.nextafter(1.0, 2.0)))
@example(([10.0] + [1.0] * 10, 0.0))
@example(([math.nextafter(10.0, 11.0)] + [1.0] * 10, 0.0))
@settings(deadline=None, max_examples=150)
def test_dominant_weight_densities_are_correctly_rounded(case):
    # where the peak covers |r| and the others, the density is the plateau
    # 1 / (2 peak), and elsewhere the corner sum.  Up to 8 weights every row
    # rounds it correctly; above 8, a row within 2^-45 of the plateau's edge
    # may go the float corner sum's way, which the rule cannot rule out
    w, r = case
    peak, covered = Fraction(w[0]), sum(map(Fraction, w[1:])) + abs(Fraction(r))
    if len(w) <= EXACT_CORNER_WEIGHTS or covered * (1 + Fraction(1, 2**45)) <= peak:
        want = 1 / (2 * peak) if covered <= peak else corner_sum(w, r, len(w) - 1)
        assert density_at(w, r) == float(want)


@pytest.mark.parametrize("w", [[1.0] + [1e-3] * 9, [1.0] + [1e-6] * 11], ids=["9-small", "11-small"])
def test_dominant_weight_above_eight_weights(w):
    # the float corner sums cancelled to 120,705.93 and -1.65e42; the weights
    # lie on the big weight's plateau, where the exact density is 1/2
    assert density_at(w, 0.0) == float(corner_sum(w, 0.0, len(w) - 1)) == 0.5


@st.composite
def exact_corner_cases(draw):
    """A ``(B, m)`` batch of positive weights and a point, for the exact corner sums.

    Rows mix exponents and full mantissas, may hold weights just above
    ``RELATIVE_WEIGHT_FLOOR`` times the peak or subnormal ones, and may tie
    corners at an exact zero sum: two equal weights, or
    ``w_0 = w_1 + w_2`` in dyadics.  Each row is scaled by its own power of
    two, so that peaks range over the binades ``2^-1000..2^1000``, which
    keeps every value finite, and a row may lie wholly above ``2^53``.  The
    point is 0, or a multiple in ``[-1.1, 1.1]`` of the first row's total
    or of its smallest weight.
    """
    m = draw(st.integers(2, EXACT_CORNER_WEIGHTS))
    weight = st.one_of(
        st.floats(1e-6, 1.0),
        st.integers(1, 2**53).map(lambda k: k / 2.0**53),
        st.integers(1, 2**10).map(lambda k: k / 2.0**10),
    )
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.lists(weight, min_size=m, max_size=m))
        tie = draw(st.sampled_from(("none", "equal", "sum", "floor", "subnormal")))
        if tie == "equal":
            row[1] = row[0]
        elif tie == "sum" and m >= 3:
            row[0] = row[1] + row[2]
        elif tie == "floor":
            # at most half the row, so the peak stays
            for k in range(m // 2):
                row[k] = max(row) * draw(st.floats(1.0001 * RELATIVE_WEIGHT_FLOOR, 1e-12))
        # the peak to [2^(e-1), 2^e), exactly, for e in -1000..1000
        scale = draw(st.integers(-1000, 1000)) - math.frexp(max(row))[1]
        row = [math.ldexp(x, scale) for x in row]
        if tie == "subnormal":
            peak = row.index(max(row))
            for k in [k for k in range(m) if k != peak][: m // 2]:
                row[k] = draw(st.floats(5e-324, 2.0**-1022, exclude_max=True))
        rows.append(row)
    w = np.array(rows)
    assume(np.all(w > 0.0))
    unit = draw(st.sampled_from((0.0, sum(rows[0]), min(rows[0]))))
    return w, draw(st.floats(-1.1, 1.1)) * unit


@given(exact_corner_cases())
@example((np.array([[1.0, 1.0], [0.5, 0.5]]), 0.0))
@example((np.array([[1.0, 0.5, 0.5], [0.75, 0.5, 0.25]]), 0.0))
@example((np.array([[1.0, 1.0, 1.0, 1.0], [0.5, 0.5, 0.25, 0.25]]), 0.25))
@example((np.array([[1.0, 2e-14, 0.3], [0.7, 0.70000000000001, 1.5e-14]]), -0.3))
@example((np.full((1, EXACT_CORNER_WEIGHTS), 0.125), 0.0))
@example((np.array([[2.0**1000, 3.0 * 2.0**999, 2.0**60], [2.0**-1000, 5e-324, 2.0**-1001]]), 2.0**999))
@settings(deadline=None, max_examples=150)
def test_exact_corner_sums_match_the_fraction_reference_bitwise(case):
    # each density and distribution function value of the batch is the
    # exact rational rounded once, whatever the binades of its weights
    w, r = case
    m = w.shape[1]
    for p in (m - 1, m):
        assert _truncated_power_sums(w, r, p) == [float(corner_sum(row, r, p)) for row in w]


@given(
    st.lists(st.floats(0.05, 3.0), min_size=0, max_size=6),
    st.lists(st.floats(1e-9, 1e-3), min_size=0, max_size=2),
    st.floats(1e-9, 1e-3),
)
@settings(deadline=None, max_examples=60)
def test_cdf_spread_exact_for_small_x(big, tiny, x):
    # F(x) - F(-x) for small x is O(x); as a difference of two CDFs near 1/2
    # it kept only the absolute accuracy of each, about 1e-16
    w = np.array(big + tiny or [x])
    m = w.size
    want = float(corner_sum(w, x, m) - corner_sum(w, -x, m))
    assert _density_and_spread(w, x)[1] == want


@pytest.mark.parametrize("m", [9, 10])
def test_cdf_spread_float_path(m):
    # above 8 weights the spread is one compensated float sum; against the
    # exact rational it is limited only by the rounding of its terms
    rng = np.random.default_rng(m)
    w = rng.uniform(0.25, 1.0, m)
    for x in (1e-6, 0.3, 1.0, float(np.sum(w)) + 1.0):
        want = corner_sum(w, x, m) - corner_sum(w, -x, m)
        assert _density_and_spread(w, x)[1] == pytest.approx(float(want), rel=1e-12)


def test_closed_form_exact_with_small_weights():
    # three weights near 0.05 beside (3, 2.75, 2.47): summing the piece
    # coefficients in floating point put the density at 0 off by 1.1e-10
    # relative; up to 8 weights every piece is exact at its centre
    w = [3.0, 2.75, 2.46875, 0.0625, 0.05078125, 0.05078125, 0.05078125]
    f = density_closed_form(w)
    for mid in f.midpoints:
        assert f(mid) == float(corner_sum(w, mid, len(w) - 1))


@given(weights_st)
@settings(deadline=None)
def test_cdf_limits_and_center(w):
    total = float(np.sum(np.abs(w)))
    assert cdf_at(w, -total - 1.0) == 0.0
    assert cdf_at(w, total + 1.0) == 1.0
    tol = 1e-13 * max(1.0, _confluence_factor(w))
    assert cdf_at(w, 0.0) == pytest.approx(0.5, abs=tol)


def test_box_boundary_conventions():
    assert density_at((1.0,), -1.0) == pytest.approx(0.5)
    assert density_at((1.0,), 1.0) == 0.0
    assert cdf_at((2.0,), 0.0) == pytest.approx(0.5)
    assert cdf_at((2.0,), 1.0) == pytest.approx(0.75)


def test_density_beyond_the_float_range_is_infinite():
    # the exact density at 0 is 1 / (4e-309), above the largest float
    assert density_at([2e-309, 2e-309], 0.0) == math.inf
    # on the plateau of a subnormal peak, 0.5 / 5e-324 overflows quietly, and
    # a weight sum past the float range takes no row to the plateau, quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert density_at([5e-324, 5e-324], 0.0) == math.inf
        assert density_at([1e308] * 3, 0.0) == float(corner_sum([1e308] * 3, 0.0, 2))
    assert density_at([-2e-309, 2e-309], 1e-309) == math.inf
    assert cdf_at([2e-309, 2e-309], 0.0) == 0.5
    # above 8 weights too: 0.2 / 1e-310 is past the largest float
    assert density_at([1e-310] * 12, 0.0) == math.inf


@pytest.mark.parametrize("m", [9, 12, 16])
def test_point_evaluators_above_exact_limit_do_not_depend_on_the_scale(m):
    # sum 2^k w_i X_i has density 2^-k f(r) at 2^k r and the same CDF; the
    # float corner sums divide a peak outside their safe binades by its
    # power of two, so both hold bitwise
    rng = np.random.default_rng(m)
    w = rng.uniform(0.25, 1.0, m)
    w = np.ldexp(w, -math.frexp(w.max())[1])  # peak in [1/2, 1)
    for frac in (-1.1, -0.6, 0.0, 0.35, 0.9):
        r = frac * float(np.sum(w))
        for k in (-1000, 0, 1000):
            scaled, at = np.ldexp(w, k), math.ldexp(r, k)
            assert density_at(scaled, at) == np.ldexp(density_at(w, r), -k)
            assert cdf_at(scaled, at) == cdf_at(w, r)


@pytest.mark.parametrize("c", [1e38, 1e300, 1e-40])
def test_point_evaluators_above_exact_limit_at_extreme_scales(c):
    assert density_at([c] * 9, 0.0) == pytest.approx(density_at(np.ones(9), 0.0) / c, rel=1e-13)
    assert cdf_at([c] * 9, 0.0) == pytest.approx(0.5, rel=1e-13)


# -- Fourier side ------------------------------------------------------


@pytest.mark.parametrize(
    "w,r",
    [
        ((1.0, 1.0, 1.0), 0.0),
        ((1.0, 1.0, 1.0), 0.25),
        ((0.3, 0.4, 0.5), 0.0),
        ((0.3, 0.4, 0.5), 0.35),
        ((1.0, 1.0, 2.0, 2.0), 1.0),
    ],
)
def test_fourier_inversion(w, r):
    with warnings.catch_warnings():
        # the cos-weighted rule warns about cycle counts at wvar=0 but
        # still converges well inside the tolerance used below
        warnings.simplefilter("ignore")
        # the characteristic function prod sin(w_i t) / (w_i t)
        integral, _ = quad(
            lambda t: float(np.prod(np.sinc(np.multiply(t, w) / np.pi))),
            0.0,
            np.inf,
            weight="cos",
            wvar=r,
            limit=400,
        )
    assert integral / math.pi == pytest.approx(density_at(w, r), abs=1e-6)


# -- compensated corner sums above 8 weights ----------------------------


def _kernel_terms(w, r, p):
    """The float corner terms ``_truncated_power_sums`` sums, built the same way."""
    shifts, parity = _corner_shifts(np.abs(np.asarray(w, dtype=float)))
    d = r - shifts
    live = d > 0.0
    return parity[live] * d[live] ** p


@given(
    st.integers(9, 16),
    st.sampled_from(["uniform", "normal"]),
    st.integers(0, 2**32 - 1),
    st.floats(-0.99, 0.99),
    st.booleans(),
)
@settings(deadline=None, max_examples=40)
# far in the tail the terms cancel beyond twice the working precision
# (Sigma|terms| / |sum| ~ 1e17); without the fsum fallback this was 2 ulps off
@example(m=15, kind="uniform", seed=2, frac=0.875, cdf=False)
def test_compensated_sum_matches_fsum(m, kind, seed, frac, cdf):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.25, 1.0, m) if kind == "uniform" else rng.standard_normal(m)
    terms = _kernel_terms(w, frac * float(np.sum(np.abs(w))), m if cdf else m - 1)
    want = math.fsum(terms)
    # short sums go to fsum; the pairwise path is checked down to length 1
    with mock.patch.object(density, "_FSUM_TERMS", 2):
        assert abs(_compensated_sum(terms) - want) <= np.spacing(abs(want))
    assert abs(_compensated_sum(terms) - want) <= np.spacing(abs(want))


@pytest.mark.parametrize(
    "terms",
    [
        [0.1],
        [1e16, 1.0],
        [1e16, 1.0, -1e16],
        [0.1, 0.2, 0.3, -0.6, 1e-20],
        [1.0, 1e100, 1.0, -1e100, 1e-3, 3.0, -2.0],
        np.random.default_rng(5).standard_normal(1000) * 10.0 ** np.arange(-20, 30, 0.05),
    ],
    ids=["one", "two", "three", "five", "seven", "1000"],
)
def test_compensated_sum_short_and_uneven_lengths(terms, monkeypatch):
    # an odd length at any level carries its last element to the end
    terms = np.asarray(terms, dtype=float)
    assert _compensated_sum(terms) == math.fsum(terms)
    monkeypatch.setattr(density, "_FSUM_TERMS", 2)
    assert _compensated_sum(terms) == math.fsum(terms)


@pytest.mark.parametrize("m", range(9, 15))
def test_point_evaluators_above_exact_limit_equal_fsum(m):
    # the compensated sum must round the kernel's own terms as fsum does
    rng = np.random.default_rng(100 + m)
    w = rng.uniform(0.25, 1.0, m) * rng.choice([-1.0, 1.0], m)
    absw = np.abs(w)
    for frac in (-0.7, -0.2, 0.0, 0.35, 0.9):
        r = frac * float(np.sum(absw))
        for evaluator, p in ((density_at, m - 1), (cdf_at, m)):
            scale = 1.0 / (2.0**m * float(np.prod(absw)) * math.factorial(p))
            assert evaluator(w, r) == scale * math.fsum(_kernel_terms(w, r, p))


# -- corner sums by doubling, and the facet kernel ----------------------


@pytest.mark.parametrize("m", range(1, 15))
def test_corner_shifts_are_sequential_sums(m):
    # doubling adds eps_k w_k in index order, as cumsum does, with weights
    # spread over nine decades; eps_k = +1 where bit k of the index is set,
    # and the parities are (-1)^(#positive)
    rng = np.random.default_rng(m)
    bits = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
    signs = 2.0 * bits - 1.0
    parity = np.where(bits.sum(axis=1) % 2 == 0, 1, -1)
    w = 10.0 ** rng.uniform(-9.0, 0.0, m)
    shifts, par = _corner_shifts(w)
    assert np.array_equal(shifts, np.cumsum(w * signs, axis=1)[:, -1])
    assert np.array_equal(par, parity)
    # the complement pattern negates a corner sum exactly
    assert np.array_equal(shifts, -shifts[::-1])
    batch = 10.0 ** rng.uniform(-9.0, 0.0, (3, m))
    assert np.array_equal(
        _corner_shifts(batch)[0], np.cumsum(batch[:, None, :] * signs, axis=2)[:, :, -1]
    )


@pytest.mark.parametrize("m", range(1, 15))
def test_density_and_spread_match_the_separate_sums(m):
    # the density is density_at's; the spread is the two-sided sum
    # sum P ((x - s)_+^m - (-x - s)_+^m), exact up to 8 weights and within
    # an ulp of fsum of its float terms beyond that
    rng = np.random.default_rng(200 + m)
    w = rng.uniform(0.25, 1.0, m)
    w[: m // 4] *= 1e-4
    total = float(np.sum(w))
    for x in (0.0, 1e-7, 0.3 * total, 0.95 * total):
        density_x, spread = _density_and_spread(w, x)
        if m > 1:
            assert density_x == density_at(w, x)
        if m <= 8:
            assert spread == float(corner_sum(w, x, m) - corner_sum(w, -x, m))
        else:
            shifts, parity = _corner_shifts(w)
            hi, lo = x - shifts, -x - shifts
            up, down = hi > 0.0, lo > 0.0
            terms = np.concatenate([parity[up] * hi[up] ** m, -parity[down] * lo[down] ** m])
            want = math.fsum(terms) / (2.0**m * float(np.prod(w)) * math.factorial(m))
            assert abs(spread - want) <= np.spacing(abs(want))
    assert _density_and_spread(w, total + 1.0) == (0.0, 1.0)


def test_large_corner_tables_are_neither_built_nor_cached():
    # at m = 16 one column of corner sums takes 2^16 floats; a 16-column
    # sign table would take 8 MB, and nothing is cached between calls
    column = 2**16 * 8
    a = np.random.default_rng(16).uniform(0.25, 1.0, 16)
    for run in (lambda: density_at(a, 0.1), lambda: sections.section_report(a)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * column


# -- one corner table for every facet -------------------------------------


def _lower_half(x, k):
    """The entries of ``x`` whose index has bit ``k`` = 0, in table order."""
    return x.reshape(-1, 2, 1 << k)[:, 0].ravel()


def _blocks_of(tables):
    """A stand-in for ``density._term_blocks`` that cuts up given tables."""

    def blocks(_w, c):
        rows = [table.reshape(-1, 1 << c) for table in tables]
        return zip(rows[0], rows[1])

    return blocks


def _table_terms(w):
    """Density and spread terms of the whole corner table of ``w``, unblocked."""
    m = w.size
    shifts, parity = _corner_shifts(w)
    t = -shifts
    density = np.where(t > 0.0, parity * np.abs(t) ** (m - 2), 0.0)
    spread = parity * np.sign(t) ** m * np.abs(t) ** (m - 1)
    return density, spread


@given(
    st.integers(2, 14),
    st.integers(0, 6),
    st.sampled_from(["corners", "cancelling", "same-sign"]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@settings(deadline=None, max_examples=60)
@example(m=14, high=3, kind="corners", seed=7, fold=False)
@example(m=12, high=6, kind="cancelling", seed=1, fold=True)
def test_facet_half_sums_within_an_ulp_of_fsum(m, high, kind, seed, fold):
    # every bit's half-sum, through the cross-block combination (blocks of
    # 2^c, c = min(m - 1, m - high)) and, with a short fsum cut-off, the
    # halving inside each fold
    rng = np.random.default_rng(seed)
    c = max(1, m - high)
    if kind == "corners":
        w = rng.uniform(0.25, 1.0, m)
        w[: m // 4] *= 1e-3
        tables = _table_terms(w)
        blocks = None
    else:
        w = np.ones(m)
        size = 10.0 ** rng.uniform(-8.0, 8.0, (2, 1 << m))
        tables = size * rng.choice([-1.0, 1.0], size.shape) if kind == "cancelling" else size
        blocks = _blocks_of(tables)
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(density, "_TABLE_BLOCK_BITS", c))
        if blocks is not None:
            stack.enter_context(mock.patch.object(density, "_term_blocks", blocks))
        if fold:
            stack.enter_context(mock.patch.object(density, "_FSUM_TERMS", 2))
        sums = _facet_sums(w)
    for table, got in zip(tables, sums):
        for k in range(m):
            want = math.fsum(_lower_half(table, k))
            assert abs(got[k] - want) <= np.spacing(abs(want))


@pytest.mark.parametrize("m", [10, 13])
def test_term_blocks_are_the_unblocked_table(m):
    rng = np.random.default_rng(500 + m)
    w = rng.uniform(0.25, 1.0, m)
    c = m - 3
    density_terms, spread_terms = _table_terms(w)
    full = list(density._term_blocks(w, c))
    assert len(full) == 8
    assert np.array_equal(np.concatenate([d for d, _ in full]), density_terms)
    assert np.array_equal(np.concatenate([s for _, s in full]), spread_terms)


def test_facet_half_sums_fall_back_to_fsum():
    # the top bit's half: v + c pairs with -v - c two levels on, so every
    # float sum cancels to 0 and only the errors carry the 1e-30; their
    # magnitude (~1e-5) is far above it, and the half goes to math.fsum
    rng = np.random.default_rng(3)
    m = 13
    v, c = rng.standard_normal(512) * 1e8, rng.standard_normal(512)
    table = np.zeros(1 << m)
    table[:1024] = np.concatenate([v, -v])
    table[2048:3072] = np.concatenate([c, -c])
    table[1024] = 1e-30
    spy = mock.Mock(wraps=density._half_terms)
    with (
        mock.patch.object(density, "_term_blocks", _blocks_of([table, table])),
        mock.patch.object(density, "_half_terms", spy),
    ):
        sums = _facet_sums(np.ones(m))
    want = math.fsum(_lower_half(table, m - 1))
    assert want == 1e-30
    for got in sums:
        assert got[m - 1] == want
        for k in range(m):
            half = math.fsum(_lower_half(table, k))
            assert abs(got[k] - half) <= np.spacing(abs(half))
    for kind in (0, 1):
        assert mock.call(mock.ANY, kind, m - 1) in spy.call_args_list


@pytest.mark.parametrize("m", [10, 13, 16])
def test_facet_marginals_are_the_facets_of_one_table(m):
    # each facet reads its half of the one table; the per-facet table of
    # the rest differs only in the rounding of the corner sums
    rng = np.random.default_rng(300 + m)
    w = rng.uniform(0.25, 1.0, m)
    for k, (density_k, spread_k) in enumerate(_facet_marginals(w)):
        want_density, want_spread = _density_and_spread(np.delete(w, k), w[k])
        assert density_k == pytest.approx(want_density, rel=1e-11)
        assert spread_k == pytest.approx(want_spread, rel=1e-11)
