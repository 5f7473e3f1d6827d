import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cube_sections import search
from cube_sections.criticality import criticality_residuals, grad_sinc_product_integral
from cube_sections.density import MAX_CLOSED_FORM_WEIGHTS
from cube_sections.search import (
    CriticalPoint,
    ScanConfig,
    _certified_rows,
    _refine_seeds,
    _scan_seeds,
    _snap_rows,
    _solve_rows,
    _tangent_hessian,
    canonicalize,
    classify_critical_point,
    refine_critical,
    scan,
)
from cube_sections.sections import diagonal_direction, normalized_section
from cube_sections.weights import InvalidInputError, as_unit_vector
from fraction_reference import corner_sum

SQRT10 = math.sqrt(10.0)
SPECIAL = np.array([1.0, 1.0, 2.0, 2.0]) / SQRT10


# -- canonical representatives ----------------------------------------------


@given(
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=6).filter(
        lambda v: max(abs(x) for x in v) > 1e-3
    )
)
@settings(deadline=None)
def test_canonicalize_properties(v):
    u = canonicalize(v)
    assert np.all(np.diff(u) >= 0.0)
    assert np.all(u >= 0.0)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(canonicalize(u), u, rtol=0.0, atol=1e-15)


def test_canonicalize_folds_orbit():
    np.testing.assert_allclose(
        canonicalize((-2.0, 1.0, 0.0)),
        np.array([0.0, 1.0, 2.0]) / math.sqrt(5.0),
        atol=1e-15,
    )
    with pytest.raises(InvalidInputError):
        canonicalize((0.0, 0.0))


# -- Newton refinement --------------------------------------------------------


def test_refine_recovers_special_direction():
    rng = np.random.default_rng(0)
    for _ in range(5):
        seed = SPECIAL + rng.normal(scale=0.01, size=4)
        refined = refine_critical(seed)
        assert refined is not None
        assert np.linalg.norm(canonicalize(refined) - canonicalize(SPECIAL)) <= 1e-9


def test_refine_snaps_to_diagonal():
    seed = np.array([0.58, 0.57, 0.585])
    refined = refine_critical(seed)
    assert refined is not None
    assert np.all(refined == refined[0])  # exact snap, not just close
    assert np.linalg.norm(refined) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_refine_does_not_depend_on_the_scale(scale):
    # the seed's norm overflowed at 1e200, which raised, and underflowed to
    # 0 at 1e-200, which lost the seed as if it were the zero vector
    for seed in ((1.0, 1.0), (3.0, 1.0, 2.0)):
        k = len(seed)
        np.testing.assert_array_equal(refine_critical(scale * np.array(seed)), diagonal_direction(k, k))


def test_refine_collapses_small_coordinates():
    refined = refine_critical(np.array([1.0, 1e-3, 1e-3]))
    assert refined is not None
    np.testing.assert_array_equal(np.sort(refined), [0.0, 0.0, 1.0])


def test_refine_loses_the_zero_vector():
    assert refine_critical([0.0, 0.0]) is None


def test_refine_accepts_exact_critical_point():
    refined = refine_critical(SPECIAL)
    assert refined is not None
    np.testing.assert_allclose(refined, SPECIAL, atol=1e-12)


@pytest.mark.parametrize(
    "seeds",
    [
        _scan_seeds(ScanConfig(dimension=4, seed_count=60, rng_seed=3)),
        # the middle seed stalls and collapses to the coordinate direction
        _scan_seeds(ScanConfig(dimension=3, seed_count=10, rng_seed=3))
        + [np.array([1.0, 1e-3, 1e-3])]
        + _scan_seeds(ScanConfig(dimension=3, seed_count=10, rng_seed=4)),
        # 150 of these rows stall and 18 leave with a tiny coordinate
        _scan_seeds(ScanConfig(dimension=4, seed_count=200, rng_seed=1)),
        # seeds with a zero coordinate that need Newton, among stalling
        # seeds: one finish batch holds recursion results and retries
        [np.array([0.0, 0.3, 0.4, 0.5]), np.array([0.2, 0.0, 0.9, 0.4])]
        + _scan_seeds(ScanConfig(dimension=4, seed_count=40, rng_seed=1))
        + [np.array([0.7, 0.1, 0.0, 0.2]), np.array([1.0, 1e-3, 1e-3, 0.0])],
    ],
    ids=["n4", "n3-collapse", "n4-retries", "n4-zero-coordinates"],
)
def test_refine_does_not_depend_on_the_batch(seeds):
    # scan refines all its seeds in one lock-step batch; every seed must
    # come out bitwise as it does alone
    together = _refine_seeds(seeds)
    for seed, got in zip(seeds, together):
        alone = refine_critical(seed)
        assert (got is None) == (alone is None)
        if got is not None:
            np.testing.assert_array_equal(got, alone)


def test_retries_run_in_one_newton_batch_per_dimension(monkeypatch):
    shapes = []
    newton_rows = search._newton_rows

    def counted(a):
        shapes.append(a.shape)
        return newton_rows(a)

    monkeypatch.setattr(search, "_newton_rows", counted)
    seeds = _scan_seeds(ScanConfig(dimension=4, seed_count=200, rng_seed=1))
    _refine_seeds(seeds)
    # the single-row calls are the zero-coordinate seeds' own recursion
    batches = [shape for shape in shapes if shape[0] > 1]
    dims = [n for _, n in batches]
    assert len(set(dims)) == len(dims)
    assert batches[0] == (201, 4)


@st.composite
def _certification_rows(draw):
    n = draw(st.integers(2, 5))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["random", "diagonal", "zeros"]), min_size=1, max_size=6)):
        if kind == "random":
            row = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        elif kind == "diagonal":
            k = draw(st.integers(1, n))
            offset = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
            noise = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
            row = diagonal_direction(k, n)[draw(st.permutations(range(n)))] + offset * np.array(noise)
        else:
            row = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
            # zeroed coordinates, or dust below the relative weight floor
            for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1)):
                row[i] *= draw(st.sampled_from([0.0, 1e-16]))
        row = np.asarray(row, dtype=float)
        if np.max(np.abs(row)) > 1e-3:
            rows.append(row)
    if not rows:
        rows.append(diagonal_direction(n, n))
    return np.array(rows)


def _stationarity_gap(a):
    """Max norm of the projected gradient, one direction at a time."""
    g = grad_sinc_product_integral(a)
    lam = float(a @ g)
    return float(np.max(np.abs(g - lam * a)))


def test_gap_rows_take_each_row_dot_alone():
    rng = np.random.default_rng(5)
    for count, n in ((1, 2), (7, 3), (500, 8), (1000, 20)):
        a = rng.standard_normal((count, n))
        grad = rng.standard_normal((count, n)) * 10.0 ** rng.uniform(-5.0, 5.0, (count, 1))
        want = [np.abs(g - (row @ g) * row).max() for row, g in zip(a, grad)]
        assert search._gap_rows(a, grad).tolist() == want
        assert search._gap_rows(np.repeat(a, 2, axis=0)[::2], grad).tolist() == want


def _certified(a):
    """The certificate of one direction, from the public residual report.

    Both the residuals and the gap are taken at the unit vector: off the
    sphere a critical direction has a nonzero gap.
    """
    report = criticality_residuals(a, tol=1e-8)
    return report.verdict != "not-critical" and _stationarity_gap(as_unit_vector(a)) <= 1e-8


@given(_certification_rows())
@settings(deadline=None, max_examples=200)
def test_batched_certification_matches_one_at_a_time(rows):
    assert _certified_rows(rows).tolist() == [_certified(a) for a in rows]
    snapped = _snap_rows(np.abs(rows))
    for row, got in zip(np.abs(rows), snapped):
        np.testing.assert_array_equal(_snap_rows(row[None])[0], got)


def test_solve_rows_loses_only_the_singular_row():
    J = np.stack([np.eye(3), np.ones((3, 3)), 2.0 * np.eye(3)])
    rhs = np.arange(9.0).reshape(3, 3)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(J, rhs[..., None])
    x, ok = _solve_rows(J, rhs)
    assert ok.tolist() == [True, False, True]
    np.testing.assert_array_equal(x[0], rhs[0])
    assert np.all(np.isnan(x[1]))
    np.testing.assert_array_equal(x[2], rhs[2] / 2.0)


# -- Newton line search ---------------------------------------------------------


def _newton_rows_one_scale(a):
    """``search._newton_rows`` with one step scale per row and sweep.

    The line search as it was before each sweep tried several scales: the
    reference whose exits the batched scales must reproduce bitwise.
    """
    count, n = a.shape
    exits: list[tuple[str, np.ndarray | None]] = [("singular", None)] * count
    # x = [a, lambda]; the multiplier starts at a . grad I
    x = np.concatenate([a, (a * search._corner_rows(a).grad).cumsum(axis=1)[:, -1:]], axis=1)
    G = search._residual_rows(x)
    state = (
        np.arange(count),  # input row
        x,
        G,
        np.abs(G).max(axis=1),  # residual of the accepted iterate
        np.zeros(count, dtype=int),  # Newton steps taken
        np.zeros((count, n + 1)),  # current step
        np.ones(count),  # its scale
        np.zeros(count, dtype=int),  # halvings of the scale
        np.zeros(count, dtype=bool),  # whether the row is in a line search
    )
    eye = np.eye(n)

    with np.errstate(all="ignore"):  # trials may overflow; they are then rejected
        while state[0].size:
            row, x, G, resid, iters, step, scale, halved, searching = state
            idle = ~searching
            if idle.any():
                left = idle & ((resid <= search._NEWTON_TOL) | (iters >= search._NEWTON_MAX_ITERS))
                for i in np.flatnonzero(left):
                    kind = "converged" if resid[i] <= search._NEWTON_TOL else "stalled"
                    exits[row[i]] = (kind, x[i, :n].copy())
                new = np.flatnonzero(idle & ~left)
                if new.size:
                    sub = x[new, :n]
                    sgn = np.sign(sub)
                    J = np.zeros((new.size, n + 1, n + 1))
                    J[:, :n, :n] = (
                        sgn[:, :, None] * sgn[:, None, :]
                        * search._corner_rows(np.abs(sub), hessian=True).hessian
                        - x[new, n, None, None] * eye
                    )
                    J[:, :n, n] = -sub
                    J[:, n, :n] = sub
                    steps, solved = search._solve_rows(J, -G[new])
                    left[new[~solved]] = True  # their exits already read "singular"
                    new = new[solved]
                    step[new] = steps[solved]
                    scale[new] = 1.0
                    halved[new] = 0
                    iters[new] += 1
                if left.any():
                    state = tuple(v[~left] for v in state)
                    row, x, G, resid, iters, step, scale, halved, searching = state

            # every row is now in a line search and tries its current scale
            x_new = x + scale[:, None] * step
            a_new = x_new[:, :n]
            sane = np.isfinite(a_new).all(axis=1) & (
                np.sqrt((a_new * a_new).cumsum(axis=1)[:, -1]) > 0.25
            )
            tiny = sane & (np.abs(a_new) <= search._ZERO_COORD_TOL).any(axis=1)
            G_new = search._residual_rows(x_new)
            resid_new = np.abs(G_new).max(axis=1)
            took = sane & ~tiny & (resid_new < resid)
            x[took] = x_new[took]
            G[took] = G_new[took]
            resid[took] = resid_new[took]
            failed = ~(took | tiny)
            scale = np.where(failed, 0.5 * scale, scale)
            halved = halved + failed
            stalled = halved >= search._HALVINGS
            for i in np.flatnonzero(tiny):
                exits[row[i]] = ("tiny", a_new[i].copy())
            for i in np.flatnonzero(stalled):
                exits[row[i]] = ("stalled", x[i, :n].copy())
            state = (row, x, G, resid, iters, step, scale, halved, failed & ~stalled)
            left = tiny | stalled
            if left.any():
                state = tuple(v[~left] for v in state)
    return exits


def _positive_rows(seeds):
    """The seeds without a zero coordinate, as ``_newton_rows`` takes them."""
    return np.array([s for s in seeds if np.all(s > 1e-7)])


# rows that leave Newton tiny, stalled, singular (the Jacobian of the
# overflowing row is exactly rank deficient) and converged
_HAND_ROWS = (
    (np.array([[0.3, 0.95], [0.6, 0.8], [1e200, 1e200], [1.0, 1.0]]), ["tiny", "stalled", "singular", "converged"]),
    (np.array([[0.2, 0.3, 0.9], [0.1, 0.2, 0.97], [1.0, 1.0, 1.0]]), ["tiny", "stalled", "converged"]),
)


@pytest.mark.parametrize("rows, kinds", _HAND_ROWS, ids=["n2", "n3"])
def test_newton_exit_kinds_of_hand_rows(rows, kinds):
    # the overflowing row's start is computed under Newton's own errstate,
    # so it leaves singular without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [kind for kind, _ in search._newton_rows(rows)] == kinds


@pytest.mark.parametrize(
    "rows",
    [_positive_rows(_scan_seeds(ScanConfig(dimension=n, seed_count=100, rng_seed=1))) for n in (3, 4, 5, 6)]
    + [_positive_rows(_scan_seeds(ScanConfig(dimension=4, seed_count=200, rng_seed=1)))]
    + [rows for rows, _ in _HAND_ROWS],
    ids=["n3", "n4", "n5", "n6", "n4-200", "n2-hand", "n3-hand"],
)
def test_newton_exits_match_one_scale_per_sweep(rows):
    with np.errstate(all="ignore"):
        want = _newton_rows_one_scale(rows)
        got = search._newton_rows(rows)
    assert [kind for kind, _ in got] == [kind for kind, _ in want]
    for (_, x), (_, y) in zip(got, want):
        if y is None:
            assert x is None
        else:
            np.testing.assert_array_equal(x, y)


def _sweep_counts(newton_rows, rows, monkeypatch):
    """Sweeps and trial rows of one Newton call: its residual batches past the first."""
    sizes = []
    residual_rows = search._residual_rows

    def counted(x):
        sizes.append(len(x))
        return residual_rows(x)

    monkeypatch.setattr(search, "_residual_rows", counted)
    newton_rows(rows)
    return len(sizes) - 1, sum(sizes[1:])


def test_newton_sweep_counts_are_pinned(monkeypatch):
    # the 200 rows of the n = 4 scan at rng seed 1 not certified at the
    # start, the thm3-n4 benchmark's Newton batch but for the main diagonal;
    # most of them stall through 30 halvings
    rows = _positive_rows(_scan_seeds(ScanConfig(dimension=4, seed_count=200, rng_seed=1)))
    rows = rows[~_certified_rows(rows)]
    assert rows.shape == (200, 4)
    assert _sweep_counts(_newton_rows_one_scale, rows, monkeypatch) == (226, 13253)
    assert _sweep_counts(search._newton_rows, rows, monkeypatch) == (99, 14676)


# -- classification ------------------------------------------------------------


def _diagonal_label(k, n):
    if k == 1:
        return "global-min"
    if k == 2:
        return "global-max"
    return "local-max" if k == n >= 4 else "saddle"


def _diagonals():
    """Every k-diagonal of n = 3..8 as scan reports it, then permuted and with random signs."""
    rng = np.random.default_rng(0)
    cases = [(k, n) for n in range(3, 9) for k in range(1, n + 1)]
    canonical = [diagonal_direction(k, n) for k, n in cases]
    signed = [u[rng.permutation(u.size)] * rng.choice([-1.0, 1.0], u.size) for u in canonical]
    labels = [_diagonal_label(k, n) for k, n in cases]
    return list(zip(canonical + signed, labels + labels))


@pytest.mark.parametrize("direction,expected", _diagonals())
def test_classify_diagonals(direction, expected):
    # a k-diagonal with 3 < k < n is a saddle through its zero coordinates;
    # at k = 4 the curvature into them vanishes and the volume rises at
    # third order, which the probe fan sees
    assert classify_critical_point(direction) == expected


def test_four_diagonal_of_five_rises_into_its_zero_coordinate():
    # sigma(a) = |a| 2 pi f_a(0), so sigma(eps, 1/2, 1/2, 1/2, 1/2) exceeds
    # sigma at eps = 0 exactly when (1 + eps^2) f_a(0)^2 exceeds f(0)^2 of
    # the four halves; the excess grows about 26-fold from eps = 1/100 to
    # 3/100, the cube law's 27 rather than a square law's 9
    half = [Fraction(1, 2)] * 4
    rise = [
        (1 + eps**2) * corner_sum([eps, *half], 0, 4) ** 2 - corner_sum(half, 0, 3) ** 2
        for eps in (Fraction(1, 100), Fraction(3, 100))
    ]
    assert rise[0] > 0
    assert 20 < rise[1] / rise[0] < 30


def _richardson_tangent_hessian(u, step=1e-4):
    """Tangent Hessian of ``sigma`` at ``u`` from second differences.

    Second differences of :func:`normalized_section` on the chart
    ``t -> u + B t`` of the tangent basis ``B``, at ``step / 2`` and
    ``step``, Richardson extrapolated: a reference that reads volumes only.
    """
    basis = np.linalg.svd(u[None, :])[2][1:].T
    d = basis.shape[1]

    def value(t):
        return normalized_section(u + basis @ t)

    f0 = value(np.zeros(d))

    def hessian(h):
        H = np.empty((d, d))
        for i, j in itertools.combinations_with_replacement(range(d), 2):
            ei, ej = h * np.eye(d)[i], h * np.eye(d)[j]
            if i == j:
                H[i, i] = (value(ei) - 2.0 * f0 + value(-ei)) / h**2
            else:
                H[i, j] = H[j, i] = (
                    value(ei + ej) - value(ei - ej) - value(-ei + ej) + value(-ei - ej)
                ) / (4.0 * h**2)
        return H

    return (4.0 * hessian(step / 2.0) - hessian(step)) / 3.0


@pytest.mark.parametrize(
    "seed",
    [
        diagonal_direction(4, 4),
        SPECIAL,
        [0.2552, 0.2552, 0.2552, 0.6343, 0.6343],
        [0.2184, 0.2184, 0.2184, 0.2184, 0.6361, 0.6361],
    ],
    ids=["4-diagonal", "1122", "n5-3-2", "n6-4-2"],
)
def test_tangent_hessian_matches_finite_differences(seed):
    u = refine_critical(seed)
    assert u is not None and np.max(np.abs(u - np.asarray(seed) / np.linalg.norm(seed))) < 1e-3
    exact = np.linalg.eigvalsh(_tangent_hessian(u)[0])
    reference = np.linalg.eigvalsh(_richardson_tangent_hessian(u))
    np.testing.assert_allclose(exact, reference, rtol=0.0, atol=1e-3)


@pytest.mark.parametrize(
    "dust, label",
    [((1.0, 1.0, 1e-15), "global-max"), ((1.0, 1e-15), "global-min"), ((1e-16, 1.0, 1.0, 1.0), "saddle")],
)
def test_classify_follows_the_weight_floor(dust, label):
    # a coordinate below the relative floor classifies as an exact zero
    twin = np.where(np.abs(dust) < 1e-14, 0.0, dust)
    assert classify_critical_point(dust) == classify_critical_point(twin) == label


def test_classify_special_direction():
    assert classify_critical_point(SPECIAL) == "saddle"


def test_classify_rejects_zero_vector():
    with pytest.raises(InvalidInputError):
        classify_critical_point([0.0, 0.0, 0.0])


def _unit_directions(n, rng):
    rows = [rng.standard_normal(n) for _ in range(40)]
    for _ in range(20):
        v = rng.standard_normal(n)
        v[rng.random(n) < 0.5] = 0.0
        if np.any(v != 0.0):
            rows.append(v)
    for k in range(1, n + 1):
        rows.append(np.where(np.arange(n) < k, 1.0, 0.0))
        rows.append(np.where(np.arange(n) < k, rng.choice([-1.0, 1.0], n), 0.0))
        rows.append(np.roll(np.eye(n)[0], k))
    return [v / np.linalg.norm(v) for v in rows]


@pytest.mark.parametrize("n", range(2, 9))
def test_tangent_basis_matches_scipy_null_space(n):
    # classify_critical_point takes its tangent basis from numpy's SVD of
    # the unit row; it is scipy's null space of that row, bit for bit
    null_space = pytest.importorskip("scipy.linalg").null_space
    rng = np.random.default_rng(n)
    for u in _unit_directions(n, rng):
        basis = np.linalg.svd(u[None, :])[2][1:].T
        np.testing.assert_array_equal(basis, null_space(u[None, :]))


# -- scanning -------------------------------------------------------------------


def test_scan_config_validation():
    with pytest.raises(InvalidInputError):
        ScanConfig(dimension=1)
    # more coordinates than the closed-form kernel takes
    with pytest.raises(InvalidInputError):
        ScanConfig(dimension=MAX_CLOSED_FORM_WEIGHTS + 1)
    ScanConfig(dimension=MAX_CLOSED_FORM_WEIGHTS, seed_count=1)
    with pytest.raises(InvalidInputError):
        ScanConfig(dimension=3, seed_count=-1)


def _sequential_seeds(config):
    """The scan seeds drawn one direction at a time, redrawing a norm below 1e-9."""
    n = config.dimension
    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed))
    seeds = [diagonal_direction(k, n) for k in range(1, n + 1)]
    for _ in range(config.seed_count):
        vec = np.abs(rng.standard_normal(n))
        while float(np.linalg.norm(vec)) < 1e-9:
            vec = np.abs(rng.standard_normal(n))
        seeds.append(vec / float(np.linalg.norm(vec)))
    return seeds


@pytest.mark.parametrize(
    "config", [ScanConfig(2, 50, 0), ScanConfig(4, 2000, 1), ScanConfig(20, 30, 7)], ids=["n2", "n4", "n20"]
)
def test_scan_seeds_are_the_sequential_draws(config):
    # one (seed_count, n) draw is the same stream, and each row's norm is
    # the one np.linalg.norm gives the row alone
    got, want = _scan_seeds(config), _sequential_seeds(config)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_scan_plane():
    points = scan(ScanConfig(dimension=2, seed_count=40))
    assert [p.diagonal_k for p in points] == [1, 2]
    assert [p.classification for p in points] == ["global-min", "global-max"]
    assert points[0].sigma == pytest.approx(math.pi, rel=1e-12)
    assert points[1].sigma == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-12)


def test_scan_three_dims():
    points = scan(ScanConfig(dimension=3, seed_count=60))
    assert [p.diagonal_k for p in points] == [1, 2, 3]
    assert [p.classification for p in points] == [
        "global-min",
        "global-max",
        "saddle",
    ]
    assert points[2].sigma == pytest.approx(
        3.0 * math.sqrt(3.0) * math.pi / 4.0, rel=1e-12
    )
    # every seed lands somewhere; diagonals are also seeded directly
    assert sum(p.basin_count for p in points) <= 60 + 3
    assert all(p.basin_count >= 1 for p in points)


def test_scan_four_dims():
    # Theorem 3 from 200 seeds: the four diagonals and (1, 1, 2, 2)
    points = scan(ScanConfig(dimension=4, seed_count=200, rng_seed=1))
    assert [p.diagonal_k for p in points] == [1, 2, 3, None, 4]
    assert [p.classification for p in points] == [
        "global-min",
        "global-max",
        "saddle",
        "saddle",
        "local-max",
    ]
    np.testing.assert_allclose(points[3].canonical, SPECIAL, rtol=0.0, atol=1e-9)


def test_scan_basins_leave_out_the_lost_seeds():
    # four of the 105 seeds at n = 5 are lost: they never certify
    points = scan(ScanConfig(dimension=5, seed_count=100, rng_seed=0))
    assert sum(p.basin_count for p in points) + 4 == 5 + 100


def test_scan_deterministic():
    cfg = ScanConfig(dimension=3, seed_count=30, rng_seed=42)
    first = scan(cfg)
    second = scan(cfg)
    assert len(first) == len(second)
    for p, q in zip(first, second):
        np.testing.assert_array_equal(p.canonical, q.canonical)
        assert p.basin_count == q.basin_count
        assert p.classification == q.classification


def test_scan_point_serializes():
    point = scan(ScanConfig(dimension=2, seed_count=5))[0]
    assert isinstance(point, CriticalPoint)
    payload = point.to_dict()
    assert payload["classification"] == "global-min"
    assert payload["diagonal_k"] == 1
    assert payload["volume"] == pytest.approx(2.0, rel=1e-12)
