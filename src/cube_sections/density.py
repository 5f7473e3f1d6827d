"""Exact densities of weighted sums of independent uniform variables.

For weights ``a`` the random variable ``S = sum_i a_i X_i`` with
``X_i ~ U[-1, 1]`` has a compactly supported piecewise-polynomial density
(the Irwin-Hall family, rescaled and symmetrized).  Two independent
constructions are provided:

* ``density_closed_form`` expands the truncated-power representation

      f(x) = (2^m m! prod w_i)^{-1} * sum_eps (-1)^{|eps|} (x - s_eps)_+^{m-1}

  over the ``2^m`` sign patterns ``s_eps = sum_i +-w_i`` of the ``m``
  nonzero weights.  Each piece's coefficients are exact rationals rounded
  once.  Only the left half of the support is built directly; the right
  half is mirrored, which makes the result exactly even.

* ``density_by_convolution`` folds in one uniform factor at a time using
  the antiderivative identity ``g(x) = (F(x+w) - F(x-w)) / (2w)``.

The two paths share no code and serve as oracles for each other.

Every corner sum is exact, at every size up to ``MAX_CLOSED_FORM_WEIGHTS``,
and rounded once.  ``_exact_tables`` writes a batch of weight rows and the
points with ``frexp`` as integers over one power of two.  On those integers
``_power_sums`` sums ``P (x - s)_+^p`` over the ``2^m`` corners: a row of
at most ``_DIRECT_CORNER_WEIGHTS`` weights from a half table, the other
half being the complements, and a larger one met in the middle (Horowitz &
Sahni, J. ACM 21(2), 1974): its corners are split into two halves, one
half's sums are sorted with prefix moments, and each corner of the other
half takes one bisection and a Horner sum, ``O(p 2^(m/2))`` integer
operations in place of ``2^m``.  The point evaluators (``density_at``,
``cdf_at``), a lone facet's density and slab spread
(``_density_and_spread``) and the densities at 0 of a batch of central
volumes (``_truncated_power_sums``) read it, and the closed form's piece
coefficients walk one sorted table with running moments.  The float corner
sums of ``_corner_shifts`` serve only the closed form's breakpoints and the
float criticality kernel.

The facet quantities of :mod:`cube_sections.sections` come from one signed
pass per direction (``_facet_marginals``): the density at 0, and for each
weight ``w_k`` the density at ``x = w_k`` of the sum without it and the slab
spread ``F(x) - F(-x)``, which is ``2 w_k f(0)`` exactly.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from functools import cache
from itertools import islice

import numpy as np

from .piecewise import PiecewisePolynomial
from .weights import InvalidInputError, _offset, nonzero_weights

__all__ = [
    "density_closed_form",
    "density_by_convolution",
    "density_at",
    "cdf_at",
    "MAX_CLOSED_FORM_WEIGHTS",
]

# the exact corner sums of m weights meet in the middle: one half's 2^(m/2)
# corner sums are held with m + 1 prefix coefficients each, Python ints that
# grow with m, and the other half's are swept; at m = 20 a density takes
# about 10 ms and peaks at 2.5 MB, a report twice that time (2-core VM).  The
# cap bounds that time and memory; every supported computation stays below.
MAX_CLOSED_FORM_WEIGHTS = 20

# rows with at most this many weights sum their corners directly from a half
# table; larger ones meet in the middle.  One density sum took 3.6 / 18.4 /
# 35.1 / 73.0 / 134.4 us from the half table at m = 3 / 6 / 7 / 8 / 9 against
# 13.0 / 30.8 / 49.6 / 62.5 / 99.9 us split (mean of six rows, best of 7 x 300
# calls, 2-core VM)
_DIRECT_CORNER_WEIGHTS = 7

_MERGE_REL_TOL = 1e-13


def _corner_shifts(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corner sums ``s_eps = eps . w`` and parities ``(-1)^(#positive)``.

    ``w`` is one weight vector or a ``(B, m)`` batch, one per row; the
    ``2^m`` sums run along the last axis, with ``eps_k = +1`` where bit
    ``k`` of the index is set.  They are built by doubling, ``s + w_k`` above
    ``s - w_k``, so each is the sequential sum
    ``((eps_0 w_0 + eps_1 w_1) + eps_2 w_2) + ...`` and the complement
    pattern gives its exact negative.  The parities are ``int8``, and
    nothing is cached.
    """
    m = w.shape[-1]
    shifts = np.zeros((*w.shape[:-1], 1 << m))
    parity = np.ones(1 << m, dtype=np.int8)
    h = 1
    for k in range(m):
        wk = w[..., k : k + 1]
        np.add(shifts[..., :h], wk, out=shifts[..., h : 2 * h])
        shifts[..., :h] -= wk
        np.negative(parity[:h], out=parity[h : 2 * h])
        h <<= 1
    return shifts, parity


def _prepared(a) -> np.ndarray:
    w = nonzero_weights(a)
    if w.size == 0:
        raise InvalidInputError("all-zero weight vector has no density")
    _check_weight_count(w.size)
    return w


def _check_weight_count(m: int) -> None:
    if m > MAX_CLOSED_FORM_WEIGHTS:
        raise InvalidInputError(
            f"more than {MAX_CLOSED_FORM_WEIGHTS} nonzero weights: the "
            "truncated-power expansion would lose all precision"
        )


def _merged_breakpoints(values: np.ndarray, span: float) -> np.ndarray:
    """Sort, merge within 1e-13*span, and symmetrize around zero.

    The input multiset is exactly symmetric (negating a sign pattern negates
    its shift without rounding), so averaging with the reversed, negated
    representative list restores exact evenness after the merge.
    """
    tol = _MERGE_REL_TOL * span
    vals = np.sort(values)
    reps = []
    start = 0
    for i in range(1, vals.size + 1):
        if i == vals.size or vals[i] - vals[start] > tol:
            reps.append(vals[start:i].mean())
            start = i
    reps = np.asarray(reps)
    reps = 0.5 * (reps - reps[::-1])
    # snap the middle representative of an odd-length list to exactly zero
    if reps.size % 2 == 1:
        reps[reps.size // 2] = 0.0
    return reps


def density_closed_form(a) -> PiecewisePolynomial:
    """Exact density of ``sum_i a_i X_i`` via the truncated-power expansion.

    Zero weights are dropped: they leave the distribution unchanged.  A
    single nonzero weight gives the uniform box of height ``1/(2|a|)``.

    The ~``2^m`` pieces read their exact sums off one sorted table of the
    ``2^m`` corner sums, walked once with running moments, and each piece
    expands its ``m`` sums binomially, so the cost grows about 2x per
    weight: one uniform [0.25, 1] direction takes 0.010, 0.025, 0.049 and
    0.83 s at m = 9, 10, 11 and 14 (2-core VM).  ``MAX_CLOSED_FORM_WEIGHTS =
    20`` bounds the input, not the practical size, which the ``2^m`` pieces
    and table entries set.

    Raises
    ------
    InvalidInputError
        For the all-zero vector, or more than 20 nonzero weights.
    """
    w = _prepared(a)
    m = w.size
    if m == 1:
        h = float(w[0])
        return PiecewisePolynomial(np.array([-h, h]), np.array([[0.5 / h]]))

    shifts, _ = _corner_shifts(w)
    span = 2.0 * float(np.sum(w))
    bp = _merged_breakpoints(shifts, span)
    tol = _MERGE_REL_TOL * span

    mids = 0.5 * (bp[:-1] + bp[1:])
    npieces = mids.size
    coeffs = np.zeros((npieces, m))
    left = int(np.count_nonzero(mids <= tol))  # the right half is mirrored below
    coeffs[:left] = _exact_piece_coefficients(w, mids[:left], bp[:left] + tol)
    # the straddling piece is an even polynomial; enforce it exactly
    coeffs[np.flatnonzero(np.abs(mids[:left]) <= tol), 1::2] = 0.0
    for j in range(npieces):
        mirror = npieces - 1 - j
        if mids[j] > tol and mirror != j:
            signs = (-1.0) ** np.arange(m)
            coeffs[j] = coeffs[mirror] * signs
    return PiecewisePolynomial(bp, coeffs)


def _fold_box(f: PiecewisePolynomial, v: float) -> PiecewisePolynomial:
    """Convolve ``f`` with the uniform box of half-width ``v``."""
    old_bp = f.breakpoints
    new_vals = np.concatenate([old_bp - v, old_bp + v])
    span = (old_bp[-1] - old_bp[0]) + 2.0 * v
    bp = _merged_breakpoints(new_vals, span)
    mids_old = f.midpoints
    halves_old = 0.5 * np.diff(old_bp)
    offsets = f._cumulative_offsets
    total = f.total_integral

    def cdf_poly(point: float, local_shift_base: float):
        """CDF restricted to the old piece containing ``point``.

        Returns ascending coefficients of F(x + shift) as a polynomial in
        the new local variable, where shift = +-v and ``point`` is the
        shifted midpoint of the new piece.
        """
        if point <= old_bp[0]:
            return np.array([0.0])
        if point >= old_bp[-1]:
            return np.array([total])
        j = int(np.searchsorted(old_bp, point, side="right")) - 1
        j = min(max(j, 0), mids_old.size - 1)
        c = f.coefficients[j]
        anti = np.concatenate([[0.0], c / np.arange(1, c.size + 1)])
        from numpy.polynomial import polynomial as P

        const = offsets[j] - P.polyval(-halves_old[j], anti)
        # compose with u -> u + delta to re-center on the new midpoint
        delta = local_shift_base - mids_old[j]
        composed = np.polynomial.Polynomial(anti)(
            np.polynomial.Polynomial([delta, 1.0])
        )
        out = composed.coef.copy()
        out[0] += const
        return out

    mids_new = 0.5 * (bp[:-1] + bp[1:])
    rows = []
    for mid in mids_new:
        up = cdf_poly(mid + v, mid + v)
        dn = cdf_poly(mid - v, mid - v)
        n = max(up.size, dn.size)
        row = np.zeros(n)
        row[: up.size] += up
        row[: dn.size] -= dn
        rows.append(row / (2.0 * v))
    width = max(r.size for r in rows)
    coeffs = np.zeros((len(rows), width))
    for j, r in enumerate(rows):
        coeffs[j, : r.size] = r
    return PiecewisePolynomial(bp, coeffs)


def density_by_convolution(a) -> PiecewisePolynomial:
    """Same contract as :func:`density_closed_form`, independent path."""
    w = _prepared(a)
    h = float(w[0])
    f = PiecewisePolynomial(np.array([-h, h]), np.array([[0.5 / h]]))
    for v in w[1:]:
        f = _fold_box(f, float(v))
    return f


def _exact_tables(w: np.ndarray, points: list[float]):
    """The ``(B, m)`` batch of live weights ``w`` and the ``points`` as integers.

    One ``frexp`` split writes every float as ``M 2^(e-53)`` with an
    integer ``M``; shifted to the smallest exponent of the weights and
    nonzero points, capped at 53, all are integers over ``2^bits`` with
    ``bits >= 0``.  Returns the integer points, ``bits`` and an iterator
    giving each row's integer weights and their product, one row at a time:
    a whole batch of Python ints alive at once, among the caller's own
    allocations, raised a fig1-grid process's memory by 1 MB.
    """
    # a zero point has no exponent of its own; it takes the cap
    split = [(int(x * 2.0**53), e if x else 53) for x, e in map(math.frexp, points)]
    mantissas, exponents = np.frexp(w)
    low = min(53, int(exponents.min()), *(e for _, e in split))
    ints = (mantissas * 2.0**53).astype(np.int64).tolist()

    def rows():
        for row, shifts in zip(ints, (exponents - low).tolist()):
            v = [x << k for x, k in zip(row, shifts)]
            yield v, math.prod(v)

    return [x << e - low for x, e in split], 53 - low, rows()


def _corners(v: list[int]) -> tuple[list[int], tuple[int, ...]]:
    """:func:`_corner_shifts` of the integers ``v``: exact sums and parities, in that order."""
    sums = [-sum(v)]
    for x in v:
        x += x
        sums += [s + x for s in sums]
    return sums, _parities(len(v))


@cache
def _parities(k: int) -> tuple[int, ...]:
    """``(-1)^(#set bits)`` of each ``k``-bit index, built by doubling and kept per ``k``."""
    parity = [1]
    for _ in range(k):
        parity += [-q for q in parity]
    return tuple(parity)


def _half_sums(v: list[int], p: int, points: list[int]) -> list[int]:
    """:func:`_power_sums` of ``v`` at the ``points``, from a table of half the corners.

    The table holds the corners with ``-v_0``; the other half are their
    complements, ``-s`` with parity ``(-1)^m P``.
    """
    # built here rather than by _corners: one call less per row of a
    # central batch, where fig1-grid sums 4,573 small rows per round
    corners, parity = [-sum(v)], _parities(len(v) - 1)
    for x in v[1:]:
        x += x
        corners += [s + x for s in corners]
    sign = -1 if len(v) % 2 else 1
    out = []
    for r in points:
        near = far = 0
        for s, q in zip(corners, parity):
            if s < r:
                near += q * (r - s) ** p
            if -s < r:
                far += q * (r + s) ** p
        out.append(near + sign * far)
    return out


def _merged_corners(v: list[int]) -> list[tuple[int, int]]:
    """The distinct corner sums of ``v``, ascending, each with the sum of its parities."""
    merged = {}
    for s, q in zip(*_corners(v)):
        merged[s] = merged.get(s, 0) + q
    return sorted(merged.items())


def _prefix_coefficients(v: list[int], p: int) -> tuple[list[int], list[tuple]]:
    """The distinct corner sums of ``v``, ascending, and the Horner coefficients of each prefix.

    Entry ``i`` holds ``c_k = C(p, k) (-1)^k sum_{j<i} P_j s_j^k`` for
    ``k = 0..p``, so ``sum_{s_j < t} P_j (t - s_j)^p`` is
    ``sum_k c_k t^(p-k)`` at the ``i`` of ``bisect_left(sums, t)``.
    """
    signed = [(-1) ** k * math.comb(p, k) for k in range(p + 1)]
    moments = [0] * (p + 1)
    keys, rows = [], [tuple(moments)]
    for s, q in _merged_corners(v):
        for k in range(p + 1):
            moments[k] += q
            q *= s
        keys.append(s)
        rows.append(tuple(map(operator.mul, signed, moments)))
    return keys, rows


def _split_sums(high: list[int], p: int, points):
    """``sum_eps P (t - s_eps)_+^p`` over the corners of ``high`` at each ``t`` of ``points``.

    Two halves of a row's corners meet in the middle (Horowitz & Sahni,
    J. ACM 21(2), 1974): the points are the ``t = x - s`` of the corners
    ``s`` of the other half, and each takes one bisection of the sorted sums
    of ``high`` and a Horner sum of ``p + 1`` steps in place of a term per
    corner.  Yields the points' sums in order.
    """
    keys, rows = _prefix_coefficients(high, p)
    for t in points:
        acc = 0
        for c in rows[bisect_left(keys, t)]:
            acc = acc * t + c
        yield acc


def _power_sums(v: list[int], p: int, points: list[int]) -> list[int]:
    """``sum_eps P (x - s_eps)_+^p`` over the corners of the integers ``v``, at each of ``points``.

    Up to ``_DIRECT_CORNER_WEIGHTS`` weights it sums a half table
    (:func:`_half_sums`).  A larger row is split into halves ``A`` and ``B``:
    a corner is ``s_A + s_B`` with parity ``P_A P_B``, so each of the
    ``2^|A|`` corners of ``A`` sums over all of ``B`` at ``t = x - s_A`` by
    :func:`_split_sums`, which sorts ``B`` once for every point.  Both are
    exact integers.
    """
    m = len(v)
    if m <= _DIRECT_CORNER_WEIGHTS:
        return _half_sums(v, p, points)
    a = m // 2
    sums, parity = zip(*_merged_corners(v[:a]))
    ts = _split_sums(v[a:], p, [x - s for x in points for s in sums])
    return [sum(map(operator.mul, parity, islice(ts, len(sums)))) for _ in points]


def _ratio(num: int, den: int) -> float:
    """``num / den`` correctly rounded; a value past the float range is an infinity."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def _exact_piece_coefficients(
    w: np.ndarray, mids: np.ndarray, limits: np.ndarray
) -> np.ndarray:
    """Local coefficients of the closed form's pieces, each correctly rounded.

    The piece centred on ``mid`` sums the corners ``s_eps <= limit``:
    ``c_i = C(m-1, i) sum P (mid - s)^(m-1-i) / (2^m (m-1)! prod w)``, an
    exact rational.  The limits ascend, so one walk up the sorted corner
    sums keeps the moments ``sum_{s <= limit} P (-s)^j``, ``j < m``, and each
    piece expands ``(mid - s)^k`` binomially around ``mid``.
    """
    m, count = w.size, mids.size
    points, bits, rows = _exact_tables(w[None], mids.tolist() + limits.tolist())
    ((v, prod),) = rows
    corners = _merged_corners(v)
    den = 2**m * prod * math.factorial(m - 1)
    out = np.zeros((count, m))
    moments, walked = [0] * m, 0
    for j, (mid, limit) in enumerate(zip(points[:count], points[count:])):
        while walked < len(corners) and corners[walked][0] <= limit:
            s, q = corners[walked]
            for i in range(m):
                moments[i] += q
                q *= -s
            walked += 1
        powers = [mid**i for i in range(m)]
        # sum P (mid - s)^k, carrying 2^(-bits k)
        sums = [
            sum(math.comb(k, i) * powers[k - i] * moments[i] for i in range(k + 1))
            for k in range(m)
        ]
        # the product carries 2^(-bits m)
        out[j] = [(math.comb(m - 1, i) * sums[m - 1 - i] << bits * (i + 1)) / den for i in range(m)]
    return out


def _truncated_power_sums(w: np.ndarray, r: float, p: int) -> list[float]:
    """``sum_eps (-1)^{#pos} (r - s_eps)_+^p / (2^m p! prod w)`` of each row of ``w``, ``p >= 0``.

    ``w`` is a ``(B, m)`` batch of live weights; ``p = 0`` only for a central
    row with one.  A density (``p = m - 1``) whose largest weight covers
    ``|r|`` and all the others is on that weight's plateau: ``0.5 / w_max``,
    correctly rounded.  The other rows' sums are exact and rounded once; an
    infinite ``r`` lies past the support.
    """
    m = w.shape[1]
    _check_weight_count(m)
    out, rest = np.empty(len(w)), slice(None)
    if p == m - 1:
        peak = w.max(axis=1)
        # the float sum c of the others and |r| errs by less than (m + 1) u (peak + c),
        # u = 2^-53, so past a tie it reads below peak by less than 2 (m + 1) u peak;
        # 1 + 4 m u, less the product's rounding, outgrows that (c is exact at m = 1)
        with np.errstate(over="ignore"):  # an infinite sum takes no row; a subnormal peak gives inf
            rest = ~((w.sum(axis=1) - peak + abs(r)) * (1.0 + m * 2.0**-51) <= peak)
            out = 0.5 / peak
        w = w[rest]
    if not math.isfinite(r):
        # 0, or 1 right of the support for the CDF (p = m)
        out[rest] = float(p == m and r > 0.0)
    elif len(w):
        (x,), bits, rows = _exact_tables(w, [r])
        den, shift = 2**m * math.factorial(p), bits * (m - p)
        # the sum carries 2^(-bits p) and the product 2^(-bits m)
        out[rest] = [_ratio(_power_sums(v, p, [x])[0] << shift, den * prod) for v, prod in rows]
    return out.tolist()


def _facet_marginals(w: np.ndarray) -> tuple[float, list[tuple[float, float]]]:
    """The density at 0 of ``sum w_i X_i``, and the density and spread of every facet.

    ``w`` holds ``m`` live weights; facet ``k`` is :func:`_density_and_spread`
    of the weights without ``w_k`` at ``w_k``.  With ``s`` the corner sums
    and ``P`` their parities, for each ``k``

        T_k = sum_eps P (-eps_k) (-s)_+^(m-2) = 2^m (m-2)! prod_{i != k} w_i f_k(w_k),

    for the density ``f_k`` of the sum without ``w_k``, which is even, and
    ``sum_k w_k T_k = sum_eps P (-s)_+^(m-1)`` is the density at 0 times
    ``2^m (m-1)! prod w``.  The spread ``F_k(w_k) - F_k(-w_k)`` is
    ``2 w_k f(0)`` exactly.  So one signed pass per half gives every value:
    each corner of ``A`` adds its sum over ``B`` (:func:`_split_sums`) into
    the ``k`` in ``A`` it carries, and the swapped pass gives the ``k`` in
    ``B``.  Each value is an exact rational rounded once.  A rest of one
    weight is a box, which the pass would take at its jump; those two
    facets are computed alone, and an empty rest is the point mass at 0.
    """
    m = w.size
    _check_weight_count(m)
    if m <= 2:
        return 0.5 / float(w.max()), [
            _density_and_spread(np.delete(w, k), w[k]) if m == 2 else (0.0, 1.0) for k in range(m)
        ]
    (), bits, rows = _exact_tables(w[None], [])
    ((v, prod),) = rows
    a = m // 2
    facets = []
    for low, high in ((v[:a], v[a:]), (v[a:], v[:a])):
        sums, parity = _corners(low)
        terms = list(map(operator.mul, parity, _split_sums(high, m - 2, [-s for s in sums])))
        total = sum(terms)
        # T_k: the corners with eps_k = -1 less those with +1
        facets += [
            total - 2 * sum(t for i, t in enumerate(terms) if i >> k & 1) for k in range(len(low))
        ]
    volume = sum(map(operator.mul, v, facets))
    den = 2**m * prod * math.factorial(m - 1)
    # T_k carries 2^(-bits (m-2)) and the product without v_k 2^(-bits (m-1))
    return _ratio(volume << bits, den), [
        (_ratio(t << bits, 2**m * math.factorial(m - 2) * (prod // x)), _ratio(2 * x * volume, den))
        for x, t in zip(v, facets)
    ]


def _density_and_spread(w: np.ndarray, x: float) -> tuple[float, float]:
    """Density ``f(x)`` and spread ``F(x) - F(-x)`` of ``sum w_i X_i``, ``x >= 0``.

    ``w`` holds live weights, as :func:`~cube_sections.weights.nonzero_weights`
    returns them, and is only checked for size.  With ``P = (-1)^{#pos}``,

        f(x) = sum P (x - s_eps)_+^(m-1) / (2^m (m-1)! prod w),
        F(x) - F(-x) = sum P ((x - s_eps)_+^m - (-x - s_eps)_+^m) / (2^m m! prod w),

    each an exact rational rounded once, so the spread does not cancel as
    the difference of two rounded CDFs near 1/2 would.
    """
    m = w.size
    _check_weight_count(m)
    (hi,), bits, rows = _exact_tables(w[None], [float(x)])
    ((v, prod),) = rows
    den = 2**m * prod * math.factorial(m - 1)
    up, down = _power_sums(v, m, [hi, -hi])
    return _ratio(_power_sums(v, m - 1, [hi])[0] << bits, den), _ratio(up - down, den * m)


def density_at(a, r: float) -> float:
    """Point evaluation of the density without building the pieces.

    Right-continuous, like :class:`PiecewisePolynomial` evaluation; the
    only discontinuous case is the single-weight box.
    """
    w = _prepared(a)
    m = w.size
    r = _offset(r)
    if m == 1:
        h = float(w[0])
        return 0.5 / h if -h <= r < h else 0.0
    return _truncated_power_sums(w[None], r, m - 1)[0]


def cdf_at(a, r: float) -> float:
    """Distribution function of ``sum a_i X_i`` at ``r``."""
    w = _prepared(a)
    m = w.size
    r = _offset(r)
    if m == 1:
        h = float(w[0])
        return min(max((r + h) / (2.0 * h), 0.0), 1.0)
    return _truncated_power_sums(w[None], r, m)[0]

