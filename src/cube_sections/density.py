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

Every exact corner sum comes from one integer engine, ``_exact_tables``:
it writes a batch of weight rows and the points with ``frexp`` as
integers over one power of two, and builds half of each row's corner sums,
the other half being their complements.  The closed form's piece
coefficients at every size, and up to ``EXACT_CORNER_WEIGHTS`` nonzero
weights the point evaluators (``density_at``, ``cdf_at``), a lone facet's
density and slab spread and the densities at 0 of a batch of central
volumes (``_truncated_power_sums``), are exact rationals from it, each
rounded once, so no cancellation is left.  Larger tables are summed in
floating point by an error-free pairwise transformation
(``_compensated_sum``), whole-array numpy work that agrees with
``math.fsum`` to an ulp; the float terms themselves still carry rounding
errors, which cancel when some weights are small against the others.  The
float corner sums are built by doubling (``_corner_shifts``), one ``2^m``
array per call and no cached table, and the terms are formed in place in
it.

The facet quantities of :mod:`cube_sections.sections` come from one table
per direction (``_facet_marginals``): for each weight ``w_k``, the density
at ``x = w_k`` of the sum without it and the slab spread ``F(x) - F(-x)``.
Facet ``k`` is the half of the table with ``-w_k``; one pairwise fold sums
every half, and the table is built in blocks, so memory stays flat.  The
spread is one corner sum of its own, so it does not cancel as the
difference of two CDFs near 1/2 would.  A single facet
(``_density_and_spread``) reads the point-density table of its weights,
``x - s_eps`` as ``density_at`` builds it, for both sums.
"""

from __future__ import annotations

import math
from functools import partial

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

# catastrophic cancellation in the float corner sums, and the cost of the
# exact ones, limit the truncated-power expansion to a few dozen weights;
# every supported computation stays far below this.
MAX_CLOSED_FORM_WEIGHTS = 20

# point evaluations and slab spreads with at most this many nonzero weights
# sum the 2^m corner terms in exact integer arithmetic; at 2^8 terms a
# density_at call takes 0.07-0.14 ms against 0.06-0.10 ms for the compensated
# float sum (six directions, best of 7 x 300 calls, 2-core VM), and larger
# tables keep the latter
EXACT_CORNER_WEIGHTS = 8

# _compensated_sum halves its array while it has at least this many
# elements and leaves the rest to math.fsum: fsum alone takes 113 us at 2051
# standard-normal terms, halving down to 1024 takes 70-84 us, and cut-offs
# from 512 to 2048 time within 10% of each other at 515 to 131075 terms
# (timeit, best of 5 x 50 calls, 2-core VM)
_FSUM_TERMS = 1024

# the facet kernel builds its corner table in blocks of 2^_TABLE_BLOCK_BITS
# entries: the facets of nine directions at n = 10..18 take 0.046 s with
# 2^14, 0.048-0.054 s with 2^13, 2^15 or 2^16 and 0.065 s unblocked (median
# of 12 interleaved rounds), and a process running their reports peaks at
# 41.9-42.0 MB with 2^13 to 2^15, 44.3 MB with 2^16 and 51.5 MB unblocked
# (2-core VM)
_TABLE_BLOCK_BITS = 14

_MERGE_REL_TOL = 1e-13

# peak binades e (peak in [2^(e-1), 2^e)) where the float corner sums of
# 9..20 live weights, each above 1e-14 * 2^(e-1) > 2^(e-48.5), run as given:
# the 2^m terms, below (40 * 2^e)^m, sum below 2^1024 for e <= 44, and the
# product, above 2^(20 e - 48.5 * 19 - 1), is a normal float for e >= -5.
# Outside, a row is divided by 2^e, exactly, and its value scaled back;
# inside it is not, since np.power is not exactly scale-equivariant
_FLOAT_BINADES = range(-5, 45)


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

    Each of the ~``2^m`` pieces sums up to ``2^m`` corner terms in Python
    integers, so the cost grows about 4x per weight: one uniform [0.25, 1]
    direction takes 0.07, 0.24 and 1.04 s at m = 9, 10 and 11 (2-core VM).
    ``MAX_CLOSED_FORM_WEIGHTS = 20`` bounds the input, not the practical
    size, which ends near a dozen weights.

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
    """The ``(B, m)`` batch of live weights ``w`` and the ``points`` as integers, with half tables.

    One ``frexp`` split writes every float as ``M 2^(e-53)`` with an
    integer ``M``; shifted to the smallest exponent of the weights and
    nonzero points, capped at 53, all are integers over ``2^bits`` with
    ``bits >= 0``.  A row's half table holds its corner sums with ``-w_0``,
    ``s = -w_0 +- w_1 +- ...``, and their parities ``P = (-1)^(#positive)``;
    the other half are the complements, ``-s`` with parity ``(-1)^m P``.
    Returns the integer points, ``bits`` and an iterator giving each row's
    table ``(s, P, (-1)^m)`` and the product of its integer weights, one
    row at a time: a whole batch of Python ints alive at once, among the
    caller's own allocations, raised a fig1-grid process's memory by 1 MB.
    """
    m = w.shape[1]
    parity = [1]
    for _ in range(m - 1):
        parity += [-q for q in parity]
    sign = (-1) ** m
    # a zero point has no exponent of its own; it takes the cap
    split = [(int(x * 2.0**53), e if x else 53) for x, e in map(math.frexp, points)]
    mantissas, exponents = np.frexp(w)
    low = min(53, int(exponents.min()), *(e for _, e in split))
    ints = (mantissas * 2.0**53).astype(np.int64).tolist()

    def rows():
        for row, shifts in zip(ints, (exponents - low).tolist()):
            v = [x << k for x, k in zip(row, shifts)]
            corners = [-sum(v)]
            for x in v[1:]:
                x += x
                corners += [s + x for s in corners]
            yield (corners, parity, sign), math.prod(v)

    return [x << e - low for x, e in split], 53 - low, rows()


def _half_sum(table, r: int, p: int) -> int:
    """``sum_eps P (r - s_eps)_+^p`` over every corner, from a half table and ``p >= 1``."""
    corners, parity, sign = table
    near = far = 0
    for s, q in zip(corners, parity):
        if s < r:
            near += q * (r - s) ** p
        if -s < r:
            far += q * (r + s) ** p
    return near + sign * far


def _exact_piece_coefficients(
    w: np.ndarray, mids: np.ndarray, limits: np.ndarray
) -> np.ndarray:
    """Local coefficients of the closed form's pieces, each correctly rounded.

    The piece centred on ``mid`` sums the corners ``s_eps <= limit``:
    ``c_i = C(m-1, i) sum P (mid - s)^(m-1-i) / (2^m (m-1)! prod w)``,
    an exact rational, every power of ``mid - s`` a repeated product.
    """
    m, count = w.size, mids.size
    points, bits, rows = _exact_tables(w[None], mids.tolist() + limits.tolist())
    (((half, parity, sign), prod),) = rows
    corners = [*zip(half, parity), *((-s, sign * q) for s, q in zip(half, parity))]
    den = 2**m * prod * math.factorial(m - 1)
    out = np.zeros((count, m))
    for j, (mid, limit) in enumerate(zip(points[:count], points[count:])):
        sums = [0] * m  # sum P (mid - s)^k, carrying 2^(-bits k)
        for s, q in corners:
            if s <= limit:
                d, term = mid - s, q
                for k in range(m):
                    sums[k] += term
                    term *= d
        # the product carries 2^(-bits m)
        out[j] = [(math.comb(m - 1, i) * sums[m - 1 - i] << bits * (i + 1)) / den for i in range(m)]
    return out


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise ``a + b`` and its exact rounding error (Knuth's TwoSum)."""
    x = a + b
    bb = x - a
    e = x - bb
    # e = (a - (x - bb)) + (b - bb), the exact error of a + b
    np.subtract(a, e, out=e)
    np.subtract(b, bb, out=bb)
    e += bb
    return x, e


def _folded(terms: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The pairwise halving of :func:`_compensated_sum`, without the last sum.

    Returns the floats whose exact sum is that of ``terms`` up to the
    errors, the float sum of those errors and the sum of their magnitudes.
    """
    x, carried, err, mag = terms, [], 0.0, 0.0
    while x.size >= _FSUM_TERMS:
        if x.size % 2:
            carried.append(x[-1])
            x = x[:-1]
        h = x.size >> 1
        x, e = _two_sum(x[:h], x[h:])
        err += np.sum(e)
        mag += np.sum(np.abs(e, out=e))
    return (np.append(x, carried) if carried else x), err, mag


def _rounded(pieces: np.ndarray, err: float, mag: float, exact) -> float:
    """``math.fsum`` of ``pieces`` and ``err``, or of the terms ``exact()``.

    ``err`` approximates the exact sum of errors that ``pieces`` lacks, to
    less than ``2^-46`` times ``mag``.  Where that could reach a quarter ulp
    of the result, the terms cancel beyond twice the working precision, and
    the iterable ``exact()`` is summed by ``math.fsum`` instead.
    """
    total = math.fsum([*pieces.tolist(), err])
    if mag * 2.0**-44 > np.spacing(abs(total)):
        return math.fsum(exact())
    return total


def _compensated_sum(terms: np.ndarray) -> float:
    """Sum of a float array within one ulp of ``math.fsum``.

    Ogita, Rump & Oishi, "Accurate sum and dot product" (SIAM J. Sci.
    Comput. 26(6), 2005): the array is halved pairwise, and Knuth's TwoSum
    gives each pairwise sum's exact rounding error.  An odd length leaves
    its last element over, which is carried to the end.  The result is the
    correctly rounded sum of the top sum, the carried elements (at most one
    per level) and the float sum of all errors.  No copy of the terms is made.

    Only that float sum of errors is inexact, by less than ``2^-46`` times
    the sum of their magnitudes (``numpy.sum`` and the sum over levels are
    at most 47 additions deep), and :func:`_rounded` falls back to
    ``math.fsum`` of the terms where that could matter.  Halving stops
    below ``_FSUM_TERMS`` elements, which go into that last ``math.fsum``;
    a shorter array is summed by it alone.
    """
    return _rounded(*_folded(terms), terms.tolist)


def _truncated_power_sums(w: np.ndarray, r: float, p: int) -> list[float]:
    """``sum_eps (-1)^{#pos} (r - s_eps)_+^p / (2^m p! prod w)`` of each row of ``w``, ``p >= 0``.

    ``w`` is a ``(B, m)`` batch of live weights; ``p = 0`` only for a central
    row with one.  A density (``p = m - 1``) whose largest weight covers
    ``|r|`` and all the others is on that weight's plateau: ``0.5 / w_max``,
    correctly rounded.  Up to ``EXACT_CORNER_WEIGHTS`` weights the other
    rows' sums are exact and rounded once.
    Beyond that each row's float terms are summed with
    :func:`_compensated_sum`, which leaves no summation error to speak of;
    the terms themselves carry rounding errors of order ``u |term|``, so
    the result still cancels when some weights are small against the others.
    A row whose peak lies outside ``_FLOAT_BINADES`` is summed at ``w`` and
    ``r`` over the peak's power of two ``2^e``, and the sum, homogeneous of
    degree ``p - m``, is scaled back by ``2^(e (p - m))``: a value past the
    float range becomes an infinity, as in the exact branch.
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
    sums = []
    if len(w) and m <= EXACT_CORNER_WEIGHTS and math.isfinite(r):
        (x,), bits, rows = _exact_tables(w, [r])
        den, shift = 2**m * math.factorial(p), bits * (m - p)
        # the sum carries 2^(-bits p) and the product 2^(-bits m)
        for table, prod in rows:
            try:
                sums.append((_half_sum(table, x, p) << shift) / (den * prod))
            except OverflowError:
                # a density beyond the float range (a CDF is at most 1)
                sums.append(math.inf)
    else:
        with np.errstate(over="ignore"):  # only a rescaled row overflows, to an infinity
            for row in w:
                e, x = math.frexp(float(row.max()))[1], r
                if e in _FLOAT_BINADES:
                    e = 0
                else:
                    row, x = np.ldexp(row, -e), float(np.ldexp(r, -e))
                total = float(np.sum(row))
                if not -total < x < total:
                    # off the support: 0, or 1 right of it for the CDF (p = m)
                    sums.append(float(p == m and x > 0.0))
                    continue
                shifts, parity = _corner_shifts(row)
                np.subtract(x, shifts, out=shifts)
                terms = _positive_powers(shifts, parity, p)
                # free the table before the sum, which would hold it beside the fold's
                # temporaries: 3.9 MB at 2^18 corners against 5.2 MB
                del shifts, parity
                scale = 1.0 / (2.0**m * float(np.prod(row)) * math.factorial(p))
                value = scale * _compensated_sum(terms)
                sums.append(float(np.ldexp(value, e * (p - m))) if e else value)
    out[rest] = sums
    return out.tolist()


def _positive_powers(d: np.ndarray, parity: np.ndarray, p: int) -> np.ndarray:
    """The terms ``P d^p`` over the corners with ``d > 0``, in table order."""
    live = d > 0.0
    terms = d[live]
    np.power(terms, p, out=terms)
    terms *= parity[live]
    return terms


def _spread_terms(t: np.ndarray, parity: np.ndarray, p: int) -> np.ndarray:
    """The terms ``P sgn(t)^(p+1) |t|^p``; an odd ``p`` has no sign to keep and works in ``t``."""
    spread = np.abs(t, out=t if p % 2 else None)
    np.power(spread, p, out=spread)
    if p % 2 == 0:
        np.copysign(spread, t, out=spread)
    spread *= parity
    return spread


def _term_blocks(w: np.ndarray, c: int):
    """The facet terms of the corner table of ``w``, one block at a time.

    With ``s`` the corner sums, ``P`` the parities and ``T = -s``, yields
    for each block ``b``, the ``2^c`` corners whose high bits are ``b``, in
    table order, the density terms ``P T_+^(m-2)`` and the spread terms
    ``P sgn(T)^m |T|^(m-1)``.  A block's corner sums are the table of
    ``w[:c]`` plus the block's signed high weights, added in the doubling
    order of :func:`_corner_shifts`, so they are bitwise the full table's;
    ``T`` is built from ``-w``, which rounds symmetrically.  The last block
    works in the low table itself.
    """
    m = w.size
    low, low_parity = _corner_shifts(-w[:c])
    last = (1 << (m - c)) - 1
    for b in range(last + 1):
        t = low if b == last else low.copy()
        for k in range(c, m):
            if b >> (k - c) & 1:
                t -= w[k]
            else:
                t += w[k]
        parity = -low_parity if bin(b).count("1") % 2 else low_parity
        density = np.power(t, m - 2, out=np.zeros_like(t), where=t > 0.0)
        density *= parity
        yield density, _spread_terms(t, parity, m - 1)


def _block_bits(m: int) -> int:
    """Low index bits per block of the table of ``m`` weights.

    At most ``_TABLE_BLOCK_BITS``, and the top bit is always a high one, so
    no block is more than half the table.
    """
    return min(m - 1, _TABLE_BLOCK_BITS)


def _half_terms(w: np.ndarray, kind: int, k: int):
    """The terms of one kind (0 density, 1 spread) over the corners with bit ``k`` = 0."""
    c = _block_bits(w.size)
    for b, terms in enumerate(_term_blocks(w, c)):
        if k < c:
            yield from terms[kind].reshape(-1, 2, 1 << k)[:, 0].ravel().tolist()
        elif not b >> (k - c) & 1:
            yield from terms[kind].tolist()


def _lower_halves(x: np.ndarray, err: np.ndarray, mag: float) -> list[tuple]:
    """For every bit ``j`` of the index of ``x``, its sum over bit ``j`` = 0.

    ``x`` has ``2^L`` entries and ``err`` the float sums of their errors,
    whose magnitudes add up to at most ``mag``.  Each level TwoSum-folds
    the top bit: the lower half is that bit's half, and every lower bit's
    half keeps its exact sum in the folded entries plus the folded errors.
    Returns :func:`_rounded`'s first three arguments for bits ``0..L-1``.
    """
    parts = []
    while x.size > 1:
        h = x.size >> 1
        pieces, folded_err, folded_mag = _folded(x[:h])
        parts.append((pieces, folded_err + np.sum(err[:h]), folded_mag + mag))
        x, e = _two_sum(x[:h], x[h:])
        err = err[:h] + err[h:]
        err += e
        mag += np.sum(np.abs(e, out=e))
    return parts[::-1]


def _joined(folds: list[tuple]) -> tuple:
    """:func:`_folded` of the floats whose exact sum is that of every fold in ``folds``."""
    if len(folds) == 1:
        return folds[0]
    pieces, err, mag = _folded(np.concatenate([fold[0] for fold in folds]))
    return pieces, err + sum(fold[1] for fold in folds), mag + sum(fold[2] for fold in folds)


def _facet_sums(w: np.ndarray) -> tuple[list[float], list[float]]:
    """The density and spread terms of :func:`_term_blocks` summed over bit ``k`` = 0.

    One sum of each kind per bit ``k``, each within an ulp of
    ``math.fsum`` over its half.  The low ``c`` bits come from the blocks
    added entry by entry with TwoSum, then folded by :func:`_lower_halves`.
    A high bit's half is a set of whole blocks, each carried exactly as the
    floats :func:`_folded` leaves, which are folded once more together.
    Every float sum of errors is at most 125 additions deep for 20 weights,
    so inexact by less than ``2^-46`` times its magnitude, as
    :func:`_rounded` needs.
    """
    m = w.size
    c = _block_bits(m)
    last = (1 << (m - c)) - 1
    # per kind: the sum over blocks entry by entry, its errors and their
    # magnitude, and the fold of each block but the last, which is in no
    # high bit's half
    rows, errs, mags, folds = [None, None], [None, None], [0.0, 0.0], ([], [])
    for b, terms in enumerate(_term_blocks(w, c)):
        for kind, x in enumerate(terms):
            if b != last:
                folds[kind].append(_folded(x))
            if rows[kind] is None:
                rows[kind], errs[kind] = x, np.zeros_like(x)
                continue
            rows[kind], e = _two_sum(rows[kind], x)
            errs[kind] += e
            mags[kind] += np.sum(np.abs(e, out=e))
    sums = ([], [])
    for kind, half in enumerate(sums):
        parts = _lower_halves(rows[kind], errs[kind], mags[kind])
        for j in range(m - c):
            parts.append(_joined([fold for b, fold in enumerate(folds[kind]) if not b >> j & 1]))
        for k, part in enumerate(parts):
            half.append(_rounded(*part, partial(_half_terms, w, kind, k)))
    return sums


def _scaled_facet(rest: np.ndarray, density_sum: float, spread_sum: float) -> tuple[float, float]:
    """Density and spread of the weights ``rest`` from their corner sums."""
    m = rest.size
    prod = float(np.prod(rest))
    scale = 1.0 / (2.0**m * prod * math.factorial(m - 1))
    return scale * density_sum, spread_sum / (2.0**m * prod * math.factorial(m))


def _facet_marginals(w: np.ndarray) -> list[tuple[float, float]]:
    """:func:`_density_and_spread` of the weights without ``w_k`` at ``x = w_k``, every ``k``.

    ``w`` holds ``m`` live weights.  One corner table serves every facet:
    it puts ``-w_k`` on index bit ``k`` = 0, so there ``T = -s`` is the
    facet's ``x - s'`` over the other weights, with their parity.  Each
    facet's density and spread are one half-sum of :func:`_facet_sums`,
    the ``2^m`` terms built once instead of ``m`` tables of ``2^(m-1)``.
    The table takes the weights largest first: in three samples of 60 to 80
    random directions at n = 10..16, with uniform or normal coordinates,
    that put the median relative error of the facet slices against exact
    sums at 2.9e-14 to 3.8e-14, against 5.0e-14 to 5.4e-14 in the given
    order, and lowered the 90th percentile and the maximum in each.
    """
    _check_weight_count(w.size - 1)
    order = np.argsort(-w, kind="stable")
    densities, spreads = _facet_sums(w[order])
    bit = np.argsort(order)
    out = []
    for k in range(w.size):
        rest = np.delete(w, k)
        if w[k] >= float(np.sum(rest)):
            out.append((0.0, 1.0))
        else:
            out.append(_scaled_facet(rest, densities[bit[k]], spreads[bit[k]]))
    return out


def _density_and_spread(w: np.ndarray, x: float) -> tuple[float, float]:
    """Density ``f(x)`` and spread ``F(x) - F(-x)`` of ``sum w_i X_i``, ``x >= 0``.

    ``w`` holds live weights, as :func:`~cube_sections.weights.nonzero_weights`
    returns them, and is only checked for size.  Both numbers come from one
    table of corner sums: with ``d = x - s_eps`` and ``P = (-1)^{#pos}``,

        f(x) = sum P d_+^(m-1) / (2^m (m-1)! prod w),
        F(x) - F(-x) = sum P sgn(d)^(m+1) |d|^m / (2^m m! prod w),

    where a negative ``d`` stands for the lower term ``-P' (-x - s')_+^m``
    of the complement pattern, whose corner sum is exactly ``s' = -s_eps``
    and whose parity is ``P' = (-1)^m P``.  The spread is one sum, so it
    does not cancel as the difference of two CDFs near 1/2 would.  Up to
    ``EXACT_CORNER_WEIGHTS`` weights both are exact and rounded once.
    Beyond that both sum the float terms of one table of ``d`` with
    :func:`_compensated_sum`, so the density is :func:`density_at`'s.
    """
    m = w.size
    _check_weight_count(m)
    x = float(x)
    if m <= EXACT_CORNER_WEIGHTS:
        (hi,), bits, rows = _exact_tables(w[None], [x])
        ((table, prod),) = rows
        den = 2**m * prod * math.factorial(m - 1)
        density = (_half_sum(table, hi, m - 1) << bits) / den
        spread = _half_sum(table, hi, m) - _half_sum(table, -hi, m)
        return density, spread / (den * m)
    if x >= float(np.sum(w)):
        return 0.0, 1.0
    d, parity = _corner_shifts(w)
    np.subtract(x, d, out=d)
    density = _compensated_sum(_positive_powers(d, parity, m - 1))
    return _scaled_facet(w, density, _compensated_sum(_spread_terms(d, parity, m)))


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

