import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from cube_sections import sections
from cube_sections.density import (
    MAX_CLOSED_FORM_WEIGHTS,
    _corner_shifts,
    _density_and_spread,
    _facet_marginals,
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


# nineteen distinct weights, and a peak an ulp below their sum
_OTHERS_19 = np.linspace(0.1, 1.0, 19).tolist()


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
@example(([math.nextafter(19.0, 0.0)] + [1.0] * 19, 0.0))
@example(([math.nextafter(math.fsum(_OTHERS_19), 0.0), *_OTHERS_19], 0.0))
@settings(deadline=None, max_examples=150)
def test_dominant_weight_densities_are_correctly_rounded(case):
    # the density is 1 / (2 peak) times the chance that the others' sum S
    # lies within peak of r; past the plateau's edge it misses by the two
    # corners of the support of S, simplices of mass
    # d^(m-1) / ((m-1)! 2^(m-1) prod others) while d <= 2 min others.
    # Every row rounds that exactly, at the edge too, at any size
    w, r = case
    peak, others, x = Fraction(w[0]), [Fraction(v) for v in w[1:]], abs(Fraction(r))
    reach, m = sum(others), len(w)

    def tail(d):
        assert d <= 2 * min(others)
        return max(d, 0) ** (m - 1) / (math.factorial(m - 1) * 2 ** (m - 1) * math.prod(others))

    want = (1 - tail(reach - x - peak) - tail(reach + x - peak)) / (2 * peak)
    assert density_at(w, r) == float(want)


@pytest.mark.parametrize("w", [[1.0] + [1e-3] * 9, [1.0] + [1e-6] * 11], ids=["9-small", "11-small"])
def test_dominant_weight_above_eight_weights(w):
    # the float corner sums cancelled to 120,705.93 and -1.65e42; the weights
    # lie on the big weight's plateau, where the exact density is 1/2
    assert density_at(w, 0.0) == float(corner_sum(w, 0.0, len(w) - 1)) == 0.5


@st.composite
def exact_corner_cases(draw):
    """A ``(B, m)`` batch of 2..12 positive weights and a point, for the exact corner sums.

    Both sides of the split at ``_DIRECT_CORNER_WEIGHTS`` are drawn, with one
    row above 8 weights, where the reference is slower.  Rows mix exponents
    and full mantissas, may hold weights just above
    ``RELATIVE_WEIGHT_FLOOR`` times the peak or subnormal ones, and may tie
    corners at an exact zero sum: two equal weights, or
    ``w_0 = w_1 + w_2`` in dyadics.  Each row is scaled by its own power of
    two, so that peaks range over the binades ``2^-1000..2^1000``, which
    keeps every value finite, and a row may lie wholly above ``2^53``.  The
    point is 0, or a multiple in ``[-1.1, 1.1]`` of the first row's total
    or of its smallest weight.
    """
    m = draw(st.integers(2, 12))
    weight = st.one_of(
        st.floats(1e-6, 1.0),
        st.integers(1, 2**53).map(lambda k: k / 2.0**53),
        st.integers(1, 2**10).map(lambda k: k / 2.0**10),
    )
    rows = []
    for _ in range(draw(st.integers(1, 4)) if m <= 8 else 1):
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
@example((np.full((1, 8), 0.125), 0.0))
@example((np.array([[2.0**1000, 3.0 * 2.0**999, 2.0**60], [2.0**-1000, 5e-324, 2.0**-1001]]), 2.0**999))
# past the largest drawn size, with ties and with distinct weights
@example((np.array([np.r_[np.full(7, 0.5), np.full(7, 0.25)]]), 0.375))
@example((np.array([np.arange(1, 17) / 16.0]), 0.375))
@example((np.array([np.arange(1, 21) / 32.0]), 0.375))
@settings(deadline=None, max_examples=150)
def test_exact_corner_sums_match_the_fraction_reference_bitwise(case):
    # each density and distribution function value of the batch is the
    # exact rational rounded once, whatever the binades of its weights, on
    # both sides of the split into halves
    w, r = case
    m = w.shape[1]
    for p in (m - 1, m):
        assert _truncated_power_sums(w, r, p) == [float(corner_sum(row, r, p)) for row in w]


@given(
    st.lists(st.floats(0.05, 3.0), min_size=0, max_size=10),
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
    # sum 2^k w_i X_i has density 2^-k f(r) at 2^k r and the same CDF; above
    # 8 weights too the values are exact rationals rounded once, so both
    # hold bitwise
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


# -- corner sums by doubling, the lone facet and the facet pass ----------


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
    # sum P ((x - s)_+^m - (-x - s)_+^m), exact at every size (the reference
    # takes a second per point at 14 weights, so larger rows check two)
    rng = np.random.default_rng(200 + m)
    w = rng.uniform(0.25, 1.0, m)
    w[: m // 4] *= 1e-4
    total = float(np.sum(w))
    for x in (0.0, 1e-7, 0.3 * total, 0.95 * total)[:: 1 if m <= 12 else 2]:
        density_x, spread = _density_and_spread(w, x)
        if m > 1:
            assert density_x == density_at(w, x)
        assert spread == float(corner_sum(w, x, m) - corner_sum(w, -x, m))
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


@pytest.mark.parametrize("m", [10, 13, 16])
def test_facet_marginals_are_the_facets_of_one_table(m):
    # one signed pass gives the density at 0 and every facet, each bitwise
    # the lone facet of the rest, whose spread is 2 w_k f(0) exactly
    rng = np.random.default_rng(300 + m)
    w = rng.uniform(0.25, 1.0, m)
    w[: m // 4] *= 1e-4
    density, marginals = _facet_marginals(w)
    assert density == density_at(w, 0.0)
    for k, marginal in enumerate(marginals):
        assert marginal == _density_and_spread(np.delete(w, k), w[k])


@pytest.mark.parametrize("m", range(1, 8))
def test_facet_marginals_of_few_weights(m):
    # a rest of one weight is a box, taken at its edge as the limit from
    # inside; ties with w_k are where the pass would split it
    w = np.r_[0.5, np.full(m - 1, 0.25)]
    density, marginals = _facet_marginals(w)
    assert density == float(corner_sum(w, 0.0, m - 1))
    for k, marginal in enumerate(marginals):
        rest = np.delete(w, k)
        if m == 1:
            # no weight left: the point mass at 0
            assert marginal == (0.0, 1.0)
        else:
            spread = corner_sum(rest, w[k], m - 1) - corner_sum(rest, -w[k], m - 1)
            assert marginal == (float(corner_sum(rest, w[k], m - 2)), float(spread))


@pytest.mark.parametrize("m", range(9, 19))
def test_diagonal_densities_are_correctly_rounded(m):
    # the float corner sums read one ulp off at m = 10, 12 and 14..18; the
    # Irwin-Hall sum is exact
    terms = [(-1) ** j * math.comb(m, j) * (m - 2 * j) ** (m - 1) for j in range(m + 1) if m > 2 * j]
    want = Fraction(sum(terms), 2**m * math.factorial(m - 1))
    assert density_at(np.ones(m), 0.0) == float(want)


def test_cancelling_eleven_weights():
    # two weights near 1e-8 beside nine of order 1: the float corner sums
    # read 621.74 for the volume, 55% below the exact 1384.14
    u = [0.6, 0.7, 0.8, 0.9, 0.5, 0.4, 0.3, 0.75, 0.65, 1e-8, 3e-9]
    want = corner_sum(u, 0.0, 10)
    assert density_at(u, 0.0) == float(want)
    exact = 2.0 ** len(u) * math.sqrt(math.fsum(x * x for x in u)) * want
    assert abs(sections.central_volume(u) - float(exact)) <= 4.5e-16 * float(exact)
