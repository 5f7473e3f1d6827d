import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cube_sections.density import cdf_at, density_at
from cube_sections.oracles import monte_carlo_section, sinc_product_quadrature
from cube_sections.search import ScanConfig
from cube_sections.weights import (
    InvalidInputError,
    RELATIVE_WEIGHT_FLOOR,
    _unit_vector,
    as_unit_vector,
    as_weight_vector,
    nonzero_weights,
)
from cube_sections.sections import facet_section_volume, parallel_section


def test_as_weight_vector_copies():
    src = np.array([1.0, 2.0])
    out = as_weight_vector(src)
    out[0] = 5.0
    assert src[0] == 1.0


def test_as_weight_vector_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        as_weight_vector([])
    with pytest.raises(InvalidInputError):
        as_weight_vector([[1.0, 2.0]])
    with pytest.raises(InvalidInputError):
        as_weight_vector([np.nan, 1.0])
    with pytest.raises(InvalidInputError):
        as_weight_vector([np.inf])
    with pytest.raises(InvalidInputError):
        as_weight_vector([0.0, 0.0])
    assert as_weight_vector([0.0, 0.0], allow_zero=True).size == 2


@pytest.mark.parametrize(
    "fn, args, kwargs",
    [
        (density_at, ([1.0, 1.0], math.nan), {}),
        (cdf_at, ([1.0, 1.0, 1.0], math.nan), {}),
        (cdf_at, ([1.0], math.nan), {}),
        (parallel_section, ([1.0, 2.0], math.nan), {}),
        (monte_carlo_section, ([1.0, 1.0],), {"r": math.nan, "samples": 10}),
        (monte_carlo_section, ([1.0, 1.0],), {"samples": 10, "rng_seed": -1}),
        (sinc_product_quadrature, ([1.0, 1.0],), {"cosine_shift": math.inf}),
        (sinc_product_quadrature, ([1.0, 1.0],), {"cosine_shift": -math.inf}),
        (sinc_product_quadrature, ([1.0, 1.0],), {"cosine_shift": math.nan}),
        (ScanConfig, (3, 10, -1), {}),
    ],
    ids=[
        "density-nan",
        "cdf-nan",
        "box-cdf-nan",
        "section-nan",
        "mc-nan",
        "mc-negative-seed",
        "quad-inf",
        "quad-minus-inf",
        "quad-nan",
        "scan-negative-seed",
    ],
)
def test_bad_numbers_are_rejected_at_the_boundary(fn, args, kwargs):
    with pytest.raises(InvalidInputError):
        fn(*args, **kwargs)


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8).filter(lambda v: any(v)))
def test_as_unit_vector_norm(values):
    assert abs(np.linalg.norm(as_unit_vector(values)) - 1.0) < 1e-12


def _one_vector_unit(row):
    """The one-vector arithmetic every row of a batch must reproduce: peak, then norm."""
    row = row / np.max(np.abs(row))
    return row / np.linalg.norm(row)


@st.composite
def _unit_batches(draw):
    """Nonzero rows of n = 1..20 coordinates at magnitudes 1e-300..1e300, with zeros and dust."""
    n = draw(st.integers(1, 20))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        scale = 10.0 ** draw(st.floats(-300.0, 300.0))
        # relative sizes: order 1, well below 1, at the weight floor and under it
        size = st.sampled_from([0.0, 1.0, 1e-3, 1e-14, 3e-15, 1e-20])
        row = [draw(st.floats(-1.0, 1.0)) * draw(size) for _ in range(n)]
        row[draw(st.integers(0, n - 1))] = draw(st.sampled_from([1.0, -0.75]))
        rows.append(scale * np.array(row))
    return np.array(rows)


@given(_unit_batches())
@settings(deadline=None, max_examples=300)
def test_unit_vector_of_a_batch_is_each_row_alone(rows):
    want = np.array([_one_vector_unit(row) for row in rows])
    # a contiguous batch, and every other row of a taller one: rows whose
    # coordinates are adjacent in memory, as a lone vector's are
    tall = np.zeros((2 * len(rows), rows.shape[1]))
    tall[::2] = rows
    for batch in (rows, tall[::2]):
        assert _unit_vector(batch).tobytes() == want.tobytes()
    for row, unit in zip(rows, want):
        assert _unit_vector(row).tobytes() == unit.tobytes()


def test_nonzero_weights_drops_zeros_and_signs():
    out = nonzero_weights([-2.0, 0.0, 1.0, 0.0])
    assert out.tolist() == [2.0, 1.0]


def test_nonzero_weights_drops_relative_dust():
    # weights below the floor are numerically invisible in corner shifts
    out = nonzero_weights([1.0, 0.5 * RELATIVE_WEIGHT_FLOOR])
    assert out.tolist() == [1.0]
    kept = nonzero_weights([1.0, 10.0 * RELATIVE_WEIGHT_FLOOR])
    assert kept.size == 2


# deleting coordinate k from the weights happens inside the facet
# functions: the slice of facet x_k = 1 is the parallel section of the
# (n-1)-cube with the other coordinates of the unit vector, at offset u_k


def test_reduce_weights_basic():
    u = as_unit_vector([1.0, 2.0, 3.0])
    slice_ = facet_section_volume([1.0, 2.0, 3.0], 1)
    assert slice_ > 0.0
    assert slice_ == pytest.approx(parallel_section(u[[0, 2]], u[1]), rel=1e-14)


def test_reduce_weights_negative_index():
    u = as_unit_vector([1.0, 2.0, 3.0])
    slice_ = facet_section_volume([1.0, 2.0, 3.0], -1)
    assert slice_ == facet_section_volume([1.0, 2.0, 3.0], 2)
    assert slice_ == pytest.approx(parallel_section(u[:2], u[2]), rel=1e-14)
