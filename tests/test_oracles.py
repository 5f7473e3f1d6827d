import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from cube_sections import oracles
from cube_sections.criticality import sinc_product_integral
from cube_sections.density import density_at
from cube_sections.oracles import (
    MonteCarloEstimate,
    _truncation,
    clt_diagonal_asymptote,
    monte_carlo_section,
    sinc_product_quadrature,
)
from cube_sections.sections import (
    central_volume,
    diagonal_section_volume,
    parallel_section,
)
from cube_sections.weights import InvalidInputError


# -- quadrature -----------------------------------------------------------


def test_truncation_resolution():
    assert _truncation(np.ones(2)) == 4000.0  # slow 1/t^2 tail
    mid = _truncation(np.ones(6))
    assert 20.0 < mid < 4000.0


@pytest.mark.parametrize(
    "a",
    [
        (1.0, 1.0),
        (1.0, 1.0, 1.0),
        (1.0, 1.0, 2.0, 2.0),
        (0.3, 0.4, 0.5),
        (0.2, 0.2, 0.2, 0.9, 1.3),
    ],
)
def test_quadrature_matches_exact_integral(a):
    assert sinc_product_quadrature(a) == pytest.approx(
        sinc_product_integral(a), abs=1e-9
    )


def test_quadrature_random_directions():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.1, 1.0, size=n)
        assert sinc_product_quadrature(a) == pytest.approx(
            sinc_product_integral(a), abs=1e-8
        )


def test_quadrature_volume_path():
    a = np.array([1.0, 1.0, 2.0, 2.0]) / math.sqrt(10.0)
    vol = 2.0**4 * sinc_product_quadrature(a) / (2.0 * math.pi)
    assert vol == pytest.approx(central_volume(a), abs=1e-8)


def test_quadrature_analytic_tail_dominates(monkeypatch):
    # an aggressive truncation forces most of the mass into the closed-form
    # tail, which must not cost accuracy
    monkeypatch.setattr(oracles, "_truncation", lambda w: 25.0)
    a = (1.0, 1.0, 1.0)
    assert sinc_product_quadrature(a) == pytest.approx(
        sinc_product_integral(a), abs=1e-9
    )


def test_quadrature_cosine_shift():
    a = (1.0, 1.0, 1.0)
    value = sinc_product_quadrature(a, cosine_shift=0.5)
    assert value / (2.0 * math.pi) == pytest.approx(
        density_at(a, 0.5), abs=1e-9
    )
    # an even number of sine factors expands into cosines, which the
    # shift's cosine folds by cos x cos v = (cos(x+v) + cos(x-v)) / 2
    for a in ((1.0, 1.0), (0.6, 0.8), (1.0, 2.0, 2.0, 1.0)):
        for frac in (0.2, 0.55, 0.9):
            shift = frac * sum(a)
            value = sinc_product_quadrature(a, cosine_shift=shift)
            assert value / (2.0 * math.pi) == pytest.approx(density_at(a, shift), abs=1e-12)


def test_quadrature_memory_does_not_grow_with_the_shift():
    sinc_product_quadrature((0.6, 0.8))  # first-call imports
    tracemalloc.start()
    try:
        # 2.4 million nodes inside the support: 200 MB when held at once
        value = sinc_product_quadrature((30.0, 40.0), cosine_shift=50.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value / (2.0 * math.pi) == pytest.approx(density_at((30.0, 40.0), 50.0), abs=1e-12)
    assert peak < 24e6


def test_quadrature_past_the_support_is_zero():
    # the density is exactly 0 there; the quadrature took 1.85 s to return
    # rounding noise, -1.45e-13 at this shift
    start = time.perf_counter()
    assert sinc_product_quadrature((0.6, 0.8), cosine_shift=1000.0) == 0.0
    assert time.perf_counter() - start < 0.1
    assert sinc_product_quadrature((0.6, 0.8), cosine_shift=-1.4) == 0.0


@pytest.mark.parametrize(
    "a",
    [[1e-100] * 2, [1e-150] * 2, [1e-160] * 3, [1e-200] * 2, [1e3] * 2, [1e200] * 2],
)
def test_quadrature_away_from_unit_scale(a, monkeypatch):
    # far from unit scale, taken at the weights over their power of two, each
    # evaluates as many nodes as the call at their mantissas (2.5M panels at
    # [1e3] * 2 and 1.3e201 at [1e200] * 2 when taken at their own scale)
    nodes = []
    sinc = np.sinc
    monkeypatch.setattr(np, "sinc", lambda x: nodes.append(x.size) or sinc(x))
    value = sinc_product_quadrature(a)
    at_scale = sum(nodes)
    nodes.clear()
    sinc_product_quadrature([math.frexp(x)[0] for x in a])
    assert at_scale == sum(nodes)
    assert value == pytest.approx(sinc_product_integral(a), rel=1e-14)


def test_quadrature_scale_covariance_is_bitwise():
    a, shift = np.array([0.3, 0.7, 1.1]), 0.4
    value = sinc_product_quadrature(a, cosine_shift=shift)
    for k in (-1000, 1000):
        scaled = sinc_product_quadrature(np.ldexp(a, k), cosine_shift=math.ldexp(shift, k))
        assert math.ldexp(scaled, k) == value


def test_quadrature_past_the_float_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the shift over the weights' scale overflows: far past the support
        assert sinc_product_quadrature([1e-300] * 2, cosine_shift=1e300) == 0.0
        # 2 pi 2^1073 is past the float range
        assert sinc_product_quadrature([5e-324] * 2) == math.inf


def test_quadrature_rejects_single_weight():
    with pytest.raises(InvalidInputError):
        sinc_product_quadrature((1.0, 0.0))


# -- Monte Carlo ------------------------------------------------------------


def test_monte_carlo_agrees_with_exact():
    a = np.array([1.0, 1.0, 2.0, 2.0]) / math.sqrt(10.0)
    est = monte_carlo_section(a, samples=200_000, rng_seed=11)
    exact = parallel_section(a, 0.0)
    assert abs(est.mean - exact) <= 4.0 * est.std_error
    assert est.samples == 200_000


def test_monte_carlo_offset_slab():
    a = (1.0, 1.0, 1.0)
    est = monte_carlo_section(a, r=1.0, samples=200_000, rng_seed=3)
    assert est.mean == pytest.approx(parallel_section(a, 1.0), rel=0.05)


def test_monte_carlo_seed_streams():
    a = (0.3, 0.4, 0.5)
    first = monte_carlo_section(a, samples=50_000, rng_seed=1)
    second = monte_carlo_section(a, samples=50_000, rng_seed=2)
    again = monte_carlo_section(a, samples=50_000, rng_seed=1)
    assert first.mean == again.mean
    assert first.mean != second.mean


def test_monte_carlo_error_scaling():
    a = (1.0, 1.0, 1.0)
    small = monte_carlo_section(a, samples=100_000, rng_seed=9)
    large = monte_carlo_section(a, samples=400_000, rng_seed=9)
    assert small.std_error / large.std_error == pytest.approx(2.0, rel=0.2)


def test_monte_carlo_validation():
    with pytest.raises(InvalidInputError):
        monte_carlo_section((1.0, 1.0), samples=0)
    # 0.01 * 5e-324 underflows to 0, but the slab is drawn at the weights
    # over their power of two, where it is the slab of [0.5]
    tiny, half = monte_carlo_section([5e-324], samples=10), monte_carlo_section([0.5], samples=10)
    assert (tiny.mean, tiny.std_error) == (half.mean, half.std_error)


@pytest.mark.parametrize("a", [[1e-200] * 2, [1e160] * 2])
def test_monte_carlo_away_from_unit_scale(a):
    # the norm of these underflows (1e-200) or overflows (1e160) at their own scale
    est = monte_carlo_section(a, samples=200_000, rng_seed=5)
    assert est.std_error < 0.1
    assert abs(est.mean - central_volume(a)) <= 4.0 * est.std_error
    assert est.slab_halfwidth == pytest.approx(0.01 * sum(a), rel=1e-15)


def test_monte_carlo_scale_covariance_is_bitwise():
    a, r = np.array([0.3, 0.7, 1.1]), 0.2
    est = monte_carlo_section(a, r, samples=50_000, rng_seed=4)
    for k in (-1000, 1000):
        scaled = monte_carlo_section(np.ldexp(a, k), math.ldexp(r, k), samples=50_000, rng_seed=4)
        assert (scaled.mean, scaled.std_error) == (est.mean, est.std_error)
        assert scaled.slab_halfwidth == math.ldexp(est.slab_halfwidth, k)


def test_monte_carlo_serializes():
    est = monte_carlo_section((1.0, 1.0), samples=1000, rng_seed=0)
    assert isinstance(est, MonteCarloEstimate)
    payload = est.to_dict()
    assert set(payload) == {"mean", "std_error", "samples", "slab_halfwidth"}
    assert payload["samples"] == 1000


# -- CLT asymptote ------------------------------------------------------------


def test_clt_asymptote_value():
    assert clt_diagonal_asymptote(2) == pytest.approx(2.0 * math.sqrt(6.0 / math.pi))
    with pytest.raises(InvalidInputError):
        clt_diagonal_asymptote(1)


def test_diagonal_volumes_approach_asymptote_from_below():
    gaps = []
    for n in range(3, 9):
        vol = diagonal_section_volume(n, n)
        limit = clt_diagonal_asymptote(n)
        assert vol < limit
        gaps.append((limit - vol) / limit)
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
