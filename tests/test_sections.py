import importlib
import json
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cube_sections
from cube_sections import cli, sections, weights
from cube_sections.casework import n3_cyclic_sum, n4_case_balance
from cube_sections.criticality import cone_balance, criticality_residuals
from cube_sections.density import MAX_CLOSED_FORM_WEIGHTS, density_at
from cube_sections.sections import (
    central_volume,
    central_volumes,
    cone_volume,
    diagonal_direction,
    diagonal_section_volume,
    facet_section_volume,
    normalized_section,
    parallel_section,
    section_report,
    slab_identity_check,
)
from cube_sections.weights import (
    RELATIVE_WEIGHT_FLOOR,
    InvalidInputError,
    as_unit_vector,
    nonzero_weights,
)
from fraction_reference import corner_sum

interior_st = st.lists(
    st.floats(0.05, 1.0, allow_nan=False), min_size=3, max_size=6
).map(np.asarray)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


# -- frozen geometry ----------------------------------------------------


def test_axis_sections():
    assert central_volume((1.0, 0.0, 0.0)) == pytest.approx(4.0, rel=1e-14)
    assert normalized_section((0.0, 1.0, 0.0)) == pytest.approx(math.pi, rel=1e-14)
    assert central_volume((0.0, 0.0, 0.0, 5.0)) == pytest.approx(8.0, rel=1e-14)


def test_two_diagonal_sections():
    assert central_volume((1.0, 1.0)) == pytest.approx(2.0 * SQRT2, rel=1e-13)
    assert normalized_section((1.0, 1.0, 0.0)) == pytest.approx(
        SQRT2 * math.pi, rel=1e-13
    )


def test_full_diagonal_volumes():
    # n = 3, 4, 5 full diagonals, normalized by the facet volume 2^(n-1)
    assert diagonal_section_volume(3, 3) / 4.0 == pytest.approx(
        3.0 * SQRT3 / 4.0, rel=1e-13
    )
    assert diagonal_section_volume(4, 4) / 8.0 == pytest.approx(4.0 / 3.0, rel=1e-13)
    assert diagonal_section_volume(5, 5) / 16.0 == pytest.approx(
        115.0 * math.sqrt(5.0) / 192.0, rel=1e-13
    )


def test_diagonal_normalized_volume_depends_only_on_k():
    for n in (4, 6, 9):
        for k in range(1, n + 1):
            assert diagonal_section_volume(n, k) / 2.0 ** (n - 1) == pytest.approx(
                diagonal_section_volume(k, k) / 2.0 ** (k - 1), rel=1e-12
            )


def test_special_direction_four_dims():
    a = (1.0, 1.0, 2.0, 2.0)
    assert central_volume(a) == pytest.approx(10.0 * math.sqrt(10.0) / 3.0, rel=1e-13)
    assert normalized_section(a) == pytest.approx(
        5.0 * math.sqrt(10.0) * math.pi / 12.0, rel=1e-13
    )


def test_parallel_section_triangle():
    a = (1.0, 1.0)
    norm = SQRT2
    assert parallel_section(a, 0.0) == pytest.approx(4.0 * norm * 0.5, rel=1e-13)
    assert parallel_section(a, 1.5) == pytest.approx(4.0 * norm * 0.125, rel=1e-13)
    assert parallel_section(a, 2.5) == 0.0


def test_parallel_section_degenerate_flag():
    value, flag = parallel_section((2.0, 0.0), 2.0, with_flag=True)
    assert (value, flag) == (2.0, True)
    value, flag = parallel_section((2.0, 0.0), 1.9, with_flag=True)
    assert (value, flag) == (2.0, False)
    value, flag = parallel_section((2.0, 0.0), 2.1, with_flag=True)
    assert (value, flag) == (0.0, False)


@pytest.mark.parametrize(
    "a, r",
    [
        ((1.0, 2.0, 3.0), 0.5),
        ((0.3, -0.4, 0.0, 0.5), -0.35),
        ((2.0, 0.0), 2.0),
        (np.arange(1.0, 11.0), 7.0),
    ],
)
def test_parallel_section_does_not_depend_on_the_scale(a, r):
    # {<x, 2^k a> = 2^k r} is the same hyperplane for every k
    want = parallel_section(a, r, with_flag=True)
    for k in (-1000, 0, 1000):
        assert parallel_section(np.ldexp(a, k), math.ldexp(r, k), with_flag=True) == want


@pytest.mark.parametrize(
    "a, want",
    [([1e300] * 3, 3.0 * SQRT3), ([1e-200] * 3, 3.0 * SQRT3), ([2e-309] * 2, 2.0 * SQRT2)],
)
def test_parallel_section_at_extreme_scales(a, want):
    assert parallel_section(a, 0.0) == pytest.approx(want, rel=1e-15)
    assert parallel_section(a, 1e308) == 0.0  # past the support, however scaled


def test_facet_and_cone_at_three_diagonal():
    a = diagonal_direction(3, 3)
    for k in range(3):
        assert facet_section_volume(a, k) == pytest.approx(SQRT2, rel=1e-13)
        assert cone_volume(a, k) == pytest.approx(SQRT3 / 2.0, rel=1e-13)


def test_facet_and_cone_at_axis():
    e1 = (1.0, 0.0, 0.0)
    assert facet_section_volume(e1, 0) == 0.0
    assert cone_volume(e1, 0) == 0.0
    # one live weight left: the facet slice is a box density, exact here
    assert facet_section_volume(e1, 1) == 2.0
    assert cone_volume(e1, 2) == 1.0
    assert facet_section_volume((0.0, 3.0, 4.0), 1) == 2.0
    assert facet_section_volume((3.0, 4.0), 0) == 1.0
    assert facet_section_volume((3.0, 4.0), 1) == 0.0  # outside the box
    # (1, 1)/sqrt(2): the slice sits at the box's support endpoint, where
    # the density is the limit from inside
    assert facet_section_volume((1.0, 1.0), 0) == 1.0
    assert facet_section_volume((1.0, 1.0), 1) == 1.0


def test_cone_requires_two_dims():
    with pytest.raises(InvalidInputError):
        cone_volume((1.0,), 0)


# -- identities ---------------------------------------------------------


@given(interior_st)
@settings(deadline=None)
def test_cone_sum_identity_interior(a):
    # needs n >= 3: in the plane the section endpoints can sit on a
    # corner shared by two facets, which double-counts the cone
    report = section_report(a)
    assert report.degenerate_facets == ()
    assert report.cone_sum == pytest.approx(report.volume / 2.0, rel=1e-10)


def test_cone_sum_identity_plane():
    report = section_report((0.3, 1.0))
    assert report.cone_sum == pytest.approx(report.volume / 2.0, rel=1e-12)


@given(interior_st)
@settings(deadline=None)
def test_slab_identity_interior(a):
    report = section_report(a)
    assert report.slab_max_error <= 1e-10 * max(report.volume, 1.0)


@given(interior_st, st.floats(0.1, 20.0))
@settings(deadline=None)
def test_scale_invariance(a, c):
    assert central_volume(c * a) == pytest.approx(central_volume(a), rel=1e-12)
    assert normalized_section(c * a) == pytest.approx(
        normalized_section(a), rel=1e-12
    )


@given(interior_st, st.floats(-1.0, 1.0))
@settings(deadline=None)
def test_parallel_section_even(a, frac):
    r = frac * float(np.sum(a))
    assert parallel_section(a, r) == pytest.approx(
        parallel_section(a, -r), rel=1e-10, abs=1e-9
    )


@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=7).map(np.asarray))
@settings(deadline=None)
def test_normalized_section_bounds(a):
    if float(np.max(np.abs(a))) < 1e-6:
        return
    # a coordinate at ~1e-13 of the largest is kept by the weight floor
    # but sits in an ill-conditioned band (corner pairs differ by under
    # an ulp); snap those to exact zero rather than loosening the bound
    a = np.where(np.abs(a) < 1e-4 * np.max(np.abs(a)), 0.0, a)
    sigma = normalized_section(a)
    assert math.pi - 1e-9 <= sigma <= SQRT2 * math.pi + 1e-9


# -- the central-volume row kernel -----------------------------------------


@st.composite
def direction_rows(draw):
    """A ``(B, n)`` batch, n = 1..12, mixing ordinary, zero and sub-floor
    coordinates beside a peak in [1/2, 1], all scaled by one factor."""
    n = draw(st.integers(1, 12))
    coordinate = st.one_of(
        st.just(0.0),
        st.floats(-1.0, 1.0),
        # full 53-bit mantissas, whose norms round
        st.integers(-(2**53), 2**53).map(lambda k: k / 2.0**53),
        # below RELATIVE_WEIGHT_FLOOR times any peak of at least 1/2
        st.floats(1e-300, 0.25 * RELATIVE_WEIGHT_FLOOR),
    )
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.lists(coordinate, min_size=n, max_size=n))
        row[draw(st.integers(0, n - 1))] = draw(st.sampled_from((1.0, -1.0))) * draw(
            st.floats(0.5, 1.0)
        )
        rows.append(row)
    return draw(st.sampled_from((1.0, 1e-200, 1e200))) * np.array(rows)


def _public_central(row):
    """The central volume composed from the public density kernel."""
    u = as_unit_vector(row)
    if nonzero_weights(u).size == 1:
        return 2.0 ** (u.size - 1)
    return 2.0**u.size * float(np.linalg.norm(u)) * density_at(u, 0.0)


@given(direction_rows())
@example(np.array([[0.3, -0.7, 0.0, 1e-18, 0.5, 0.9, -0.2, 0.4, 0.8, 0.6, -0.1, 0.35]]))
@example(np.array([[0.0, 0.0, 1e-20, -2.0], [1.0, 1.0, 1.0, 1.0]]))
# rows whose volumes move by an ulp under einsum row norms; the unit rows'
# norms come from np.vecdot, which takes each row's dot as the row alone
@example(np.array([[0.715, -0.933, 0.459], [0.189, -0.324, -0.217]]))
# weights below the relative floor, which the exact kernel must not see
@example(np.array([[0.5, 0.5, 2**-53, 2**-53]]))
# a lone live weight is on its own plateau, a box of volume 2^(n-1) = 4
@example(np.array([[1.0, 1e-15, 0.0], [0.0, -3.0, 2e-17]]))
@settings(deadline=None)
def test_central_volumes_is_the_public_composition_bitwise(rows):
    # more than EXACT_CORNER_WEIGHTS live weights takes the float sum
    assert central_volumes(rows).tolist() == [_public_central(row) for row in rows]
    assert [central_volume(row) for row in rows] == central_volumes(rows).tolist()


def test_central_volumes_of_a_column_major_batch():
    # a row of a column-major array is strided, and a strided dot product
    # rounds in another order than the contiguous one of a lone row
    rows = np.random.default_rng(0).uniform(0.1, 1.0, (300, 8))
    want = [central_volume(row) for row in rows]
    assert central_volumes(np.asfortranarray(rows)).tolist() == want


@pytest.mark.parametrize(
    "bad",
    [
        [[1.0, np.nan, 0.5]],
        [[0.2, 0.3], [np.inf, 1.0]],
        [[1.0, 2.0], [0.0, 0.0]],
        [1.0, 2.0],
        np.zeros((0, 3)),
        [],
        np.ones((2, MAX_CLOSED_FORM_WEIGHTS + 1)),
    ],
    ids=["nan", "inf", "zero-row", "1-d", "no-rows", "empty", "too-many-weights"],
)
def test_central_volumes_rejects_invalid_batches(bad):
    with pytest.raises(InvalidInputError):
        central_volumes(bad)


def test_central_volumes_near_a_plateau_edge_do_not_depend_on_the_batch():
    # above 8 live weights the plateau rule and the float corner sum give
    # different roundings near the edge, so each row must choose alone
    rng = np.random.default_rng(3)
    rows = []
    for m in (9, 12, 16):
        others = rng.uniform(0.1, 1.0, (20, m - 1))
        peak = others.sum(axis=1) * (1.0 + np.arange(-10, 10) * 2.0**-52)
        rows.append(np.column_stack([peak, others, np.zeros((20, 16 - m))]))
    rows = np.concatenate(rows)
    assert central_volumes(rows).tolist() == [central_volume(row) for row in rows]


@pytest.mark.parametrize(
    "a", [[1.0] + [1e-3] * 9, [1.0] + [1e-6] * 11], ids=["9-small", "11-small"]
)
def test_dominant_weight_volumes_above_eight_weights(a):
    # the float corner sums gave a volume of 3,059,614.7 for the first and
    # a normalized section of -9.6e42 for the second; on the big weight's
    # plateau the volume is 2^(n-1) |a| / max |a|, here max |a| = 1
    exact = 2.0 ** (len(a) - 1) * math.sqrt(math.fsum(x * x for x in a))
    assert section_report(a).volume == pytest.approx(exact, rel=1e-15)
    assert central_volume(a) == section_report(a).volume
    assert normalized_section(a) == pytest.approx(math.pi * exact / 2.0 ** (len(a) - 1), rel=1e-15)


def test_central_volume_keeps_the_weight_count_check():
    with pytest.raises(InvalidInputError):
        central_volume(np.ones(MAX_CLOSED_FORM_WEIGHTS + 1))
    with pytest.raises(InvalidInputError):
        parallel_section(np.ones(MAX_CLOSED_FORM_WEIGHTS + 1), 0.5)


def test_slab_identity_axis_cases():
    lhs, rhs = slab_identity_check((1.0, 0.0, 0.0), 0)
    assert lhs == pytest.approx(rhs, rel=1e-14)
    with pytest.raises(InvalidInputError):
        slab_identity_check((1.0, 0.0, 0.0), 1)


def test_report_boundary_direction():
    # one zero coordinate: facet slices through x_k = +-1 are cube edges,
    # where the half-open density convention drops the cone contribution
    report = section_report((1.0, 1.0, 0.0))
    assert report.degenerate_facets == (2,)
    assert report.volume == pytest.approx(4.0 * SQRT2, rel=1e-13)
    assert report.slab_max_error <= 1e-12
    assert report.cone_volumes[2] == pytest.approx(SQRT2, rel=1e-13)


def _report_kernel_calls(monkeypatch, a):
    """The report of ``a`` and the density kernels it called, by name."""
    calls = []

    def counted(kernel):
        def wrapper(*args):
            calls.append(kernel.__name__)
            return kernel(*args)

        return wrapper

    for name in ("density_at", "_density_and_spread", "_facet_marginals"):
        monkeypatch.setattr(sections, name, counted(getattr(sections, name)))
    return section_report(a), calls


def test_report_kernel_calls(monkeypatch):
    # one central volume, and one exact table per facet for its slice and slab
    n = 6
    report, calls = _report_kernel_calls(monkeypatch, np.arange(1.0, n + 1.0))
    assert len(calls) == n + 1
    assert calls.count("_density_and_spread") == n
    assert report.cone_sum == pytest.approx(report.volume / 2.0, rel=1e-12)


def test_report_kernel_calls_share_one_table(monkeypatch):
    # above 8 weights in each rest, one table serves every facet
    n = 12
    report, calls = _report_kernel_calls(monkeypatch, np.arange(1.0, n + 1.0))
    assert sorted(calls) == ["_facet_marginals", "density_at"]
    assert report.cone_sum == pytest.approx(report.volume / 2.0, rel=1e-12)


def test_inputs_are_coerced_once(monkeypatch):
    # a public call validates its input once; central volumes, batched or
    # not, take the batch kernel, which checks nothing again, and only a
    # report's volume reads density_at, which checks its weights once more
    calls = []
    original = weights.as_weight_vector

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for info in pkgutil.iter_modules(cube_sections.__path__):
        module = importlib.import_module(f"cube_sections.{info.name}")
        if getattr(module, "as_weight_vector", None) is original:
            monkeypatch.setattr(module, "as_weight_vector", counted)

    def coercions(fn, a):
        calls.clear()
        fn(a)
        return len(calls)

    n = 6
    assert coercions(central_volume, np.arange(1.0, 4.0)) == 1
    assert coercions(normalized_section, np.arange(1.0, 4.0)) == 1
    assert coercions(section_report, np.arange(1.0, n + 1.0)) == 2
    # central_volumes checks its batch in one pass of its own
    assert coercions(cli.main, ["fig1-grid", "--resolution", "5"]) == 0
    assert coercions(cone_balance, np.arange(1.0, 5.0)) == 1
    assert coercions(criticality_residuals, np.arange(1.0, 5.0)) == 1
    assert coercions(n3_cyclic_sum, (0.3, 0.5, 0.8)) == 1
    b = np.array([0.2, 0.3, 0.4, 0.7])
    assert coercions(lambda x: n4_case_balance(x, "A"), b / np.linalg.norm(b)) == 1


# -- facet index handling ----------------------------------------------


def test_facet_functions_reject_out_of_range_index():
    for k in (3, -4):
        with pytest.raises(InvalidInputError):
            facet_section_volume((1.0, 2.0, 3.0), k)
        with pytest.raises(InvalidInputError):
            cone_volume((1.0, 2.0, 3.0), k)
        with pytest.raises(InvalidInputError):
            slab_identity_check((1.0, 2.0, 3.0), k)


def test_facet_functions_negative_index():
    # k < 0 counts from the end, k + n
    a = (1.0, 2.0, 3.0)
    for k in (-1, -2, -3):
        assert facet_section_volume(a, k) == facet_section_volume(a, k + 3)
        assert cone_volume(a, k) == cone_volume(a, k + 3)
        assert slab_identity_check(a, k) == slab_identity_check(a, k + 3)


def test_facet_functions_one_dimensional():
    # deleting the only coordinate leaves no randomness: an empty facet
    # slice, and the slab spread of the point mass at 0
    assert facet_section_volume((2.0,), 0) == 0.0
    assert facet_section_volume((2.0,), -1) == 0.0
    assert slab_identity_check((2.0,), 0) == (1.0, 1.0)
    # the report's section is the point 0, over an empty slice and cone
    report = section_report([3.0])
    assert report.volume == 1.0
    np.testing.assert_array_equal(report.cone_volumes, [0.0])


def test_facet_functions_coordinate_direction():
    # a = e_j: the rest of the vector is all zero
    a = (0.0, -3.0, 0.0)
    assert facet_section_volume(a, 1) == 0.0
    assert cone_volume(a, 1) == 0.0
    assert slab_identity_check(a, 1) == (4.0, 4.0)
    assert facet_section_volume(a, 0) == 2.0


def test_dominant_weight_facet_is_empty():
    # |u_0| = 11/sqrt(111) exceeds the sum of the other ten weights, so the
    # plane misses facet 0 and its slab holds the whole rest; the shared
    # table of the report and the lone facet both take that branch
    u = as_unit_vector(np.r_[11.0, np.ones(10)])
    report = section_report(u)
    assert report.facet_section_volumes[0] == 0.0
    assert report.cone_volumes[0] == 0.0
    assert sections._all_facet_terms(u)[0] == sections._facet_terms(u, 0) == (0.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "a",
    [
        (1e-8, 1e-8, 0.6, 0.8),
        (1e-8, 3e-8, 0.5, 0.6, 0.7),
        (1e-8, 2e-8, 0.4, 0.5, 0.6, 0.7),
        (2e-8, 1e-8, 0.3, 0.4, 0.5, 0.6, 0.7),
        (1e-8, 1.5e-8, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7),
    ],
)
def test_slab_identity_near_degenerate(a):
    # two weights near 1e-8: the spread F(a_k) - F(-a_k) over the others is
    # O(1e-8), and taking it as the difference of two CDFs near 1/2 put the
    # slab identity off by 3.8e-10 V to 4.0e-9 V
    report = section_report(a)
    assert report.slab_max_error <= 1e-10 * report.volume


def _exact_facet(u, k):
    """Slice and spread of facet ``k`` from the exact rational corner sums."""
    rest = np.delete(u, k)
    w = rest[rest != 0.0]
    m, h = w.size, abs(float(u[k]))
    spread = corner_sum(w, h, m) - corner_sum(w, -h, m)
    return 2.0**rest.size * float(np.linalg.norm(rest)) * float(corner_sum(w, h, m - 1)), float(spread)


@pytest.mark.parametrize("n", [10, 11, 12])
def test_report_facets_match_the_exact_corner_sums(n):
    rng = np.random.default_rng(n)
    u = as_unit_vector(rng.uniform(0.25, 1.0, n) * rng.choice([-1.0, 1.0], n))
    report = section_report(u)
    spreads = [spread for _, _, spread in sections._all_facet_terms(u)]
    for k in range(n):
        slice_, spread = _exact_facet(u, k)
        assert report.facet_section_volumes[k] == pytest.approx(slice_, rel=1e-12)
        assert sections._slab_rhs(u, k, spreads[k]) == pytest.approx(
            sections._slab_rhs(u, k, spread), rel=1e-12
        )


def _replaced(values, *coordinates):
    a = np.array(values)
    for k, v in coordinates:
        a[k] = v
    return a


@pytest.mark.parametrize(
    "a",
    [
        _replaced(np.linspace(0.3, 1.0, 11), (3, 0.0)),
        _replaced(np.linspace(0.3, 1.0, 11), (5, 1e-16)),
        # the peak's rest keeps 9.5e-15, which the floor of the whole drops
        _replaced(np.linspace(0.3, 0.9, 11), (0, 1.0), (10, 9.5e-15)),
        np.linspace(0.3, 1.0, 9),
        np.linspace(0.3, 1.0, 10),
    ],
    ids=["zero", "sub-floor", "peak-rest", "n9", "n10"],
)
def test_report_facets_match_one_facet_at_a_time(a):
    # the facets the shared table leaves out take their own kernel call
    u = as_unit_vector(a)
    report = section_report(a)
    shared = sections._all_facet_terms(u)
    for k in range(u.size):
        slice_, _, spread = sections._facet_terms(u, k)
        assert report.facet_section_volumes[k] == pytest.approx(slice_, rel=1e-12, abs=0.0)
        assert shared[k][2] == pytest.approx(spread, rel=1e-12, abs=0.0)


def test_report_serializes():
    report = section_report((1.0, 1.0, 2.0, 2.0))
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["sigma"] == pytest.approx(
        5.0 * math.sqrt(10.0) * math.pi / 12.0, rel=1e-13
    )
    assert len(payload["cone_volumes"]) == 4
    assert payload["degenerate_facets"] == []
    assert payload["cone_sum"] == pytest.approx(payload["volume"] / 2.0, rel=1e-12)


def test_diagonal_direction_validation():
    v = diagonal_direction(2, 4)
    np.testing.assert_allclose(v, [0.0, 0.0, 1.0 / SQRT2, 1.0 / SQRT2])
    with pytest.raises(InvalidInputError):
        diagonal_direction(0, 3)
    with pytest.raises(InvalidInputError):
        diagonal_direction(4, 3)
