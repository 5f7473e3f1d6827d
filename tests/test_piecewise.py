import numpy as np
import pytest
from hypothesis import given, strategies as st

from cube_sections.piecewise import PiecewisePolynomial
from cube_sections.weights import InvalidInputError


def triangle() -> PiecewisePolynomial:
    # density of X1 + X2, X_i ~ U[-1,1]: hat function on [-2, 2],
    # midpoint-local coefficients on pieces [-2,0] and [0,2]
    return PiecewisePolynomial(
        breakpoints=np.array([-2.0, 0.0, 2.0]),
        coefficients=np.array([[0.25, 0.25], [0.25, -0.25]]),
    )


def test_validation():
    with pytest.raises(InvalidInputError):
        PiecewisePolynomial(np.array([0.0, 0.0]), np.array([[1.0]]))
    with pytest.raises(InvalidInputError):
        PiecewisePolynomial(np.array([0.0, 1.0]), np.array([[1.0], [2.0]]))


def test_support_and_degree():
    f = triangle()
    assert f.support == (-2.0, 2.0)
    assert f.midpoints.tolist() == [-1.0, 1.0]


def test_call_inside_and_outside():
    f = triangle()
    assert f(0.0) == pytest.approx(0.5)
    assert f(1.0) == pytest.approx(0.25)
    assert f(-3.0) == 0.0
    assert f(3.0) == 0.0
    # right-continuous evaluation: at the right support edge the value is 0
    assert f(2.0) == 0.0
    assert f(-2.0) == pytest.approx(0.0)


def test_call_vectorized():
    f = triangle()
    x = np.array([-3.0, -1.0, 0.0, 1.0, 2.5])
    np.testing.assert_allclose(f(x), [0.0, 0.25, 0.5, 0.25, 0.0])


def test_total_integral_and_cumulative():
    f = triangle()
    assert f.total_integral == pytest.approx(1.0)
    assert f.cumulative(-2.0) == pytest.approx(0.0)
    assert f.cumulative(0.0) == pytest.approx(0.5)
    assert f.cumulative(1.0) == pytest.approx(0.875)
    assert f.cumulative(5.0) == pytest.approx(1.0)
    assert f.cumulative(-5.0) == 0.0


@given(st.floats(-2, 2), st.floats(-2, 2))
def test_cumulative_monotone(x, y):
    f = triangle()
    lo, hi = sorted((x, y))
    assert f.cumulative(lo) <= f.cumulative(hi) + 1e-15
