"""Hyperplane-section volumes of the cube ``Q_n = [-1, 1]^n``.

The bridge between geometry and probability: if ``a`` is a unit normal and
``S = sum_i a_i X_i`` with ``X_i ~ U[-1, 1]``, then the parallel section
function satisfies ``s_a(r) = 2^n |a| f_S(r)``, so every volume here is read
off an exact piecewise-polynomial density.  No quadrature is used in this
module; the oscillatory-integral path lives in :mod:`cube_sections.oracles`
as an independent check.

Boundary convention: densities are evaluated right-continuously, except
that geometric quantities at a support endpoint use the one-sided limit
from inside the support (a section of a facet by its own boundary plane is
still a face, not the empty set).

Each public function coerces its input once; the private helpers it calls
take the validated array (``_section_at`` any nonzero vector, the facet
helpers the unit vector and an index in range) and check nothing again;
``weights._live`` picks the live weights.  Every density, bitwise
``density_at`` of the live weights, comes from the density kernels, which
check only the weight count, and is an exact rational rounded once.
Central volumes have one row kernel, ``_central_rows``, for a batch
(``central_volumes``) or a batch of one: each row is scaled to a unit
vector and each live-weight count takes one ``_truncated_power_sums``
call.  Off-centre sections take one row of the same kernel.  Everything per
facet, the slice, the cone over it and the slab spread of the slab
identity, comes from the density and spread of the weights without
coordinate ``k``.  A report and a cone balance make one ``_facet_marginals``
call for the volume and every facet; a single facet, and a coordinate under
the weight floor but not zero, takes one ``_density_and_spread`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .density import _density_and_spread, _facet_marginals, _truncated_power_sums
from .weights import (
    InvalidInputError,
    _live,
    _nonzero_weights,
    _scaled_at,
    _unit_vector,
    as_unit_vector,
    as_weight_vector,
)

__all__ = [
    "SectionReport",
    "parallel_section",
    "central_volume",
    "central_volumes",
    "normalized_section",
    "facet_section_volume",
    "cone_volume",
    "slab_identity_check",
    "section_report",
    "diagonal_direction",
    "diagonal_section_volume",
]


def parallel_section(a, r: float, *, with_flag: bool = False):
    """Volume of ``{x in Q_n : <x, a> = r}``; not scale-invariant in ``a``.

    Parameters
    ----------
    a : array_like
        Nonzero weight vector (n coordinates).
    r : float
        Hyperplane offset.
    with_flag : bool
        Also return a degeneracy flag.  The flag is set in the single
        degenerate case ``a = c e_j`` with ``|r| = |c|``, where the density
        does not exist but the geometric section is the facet itself.

    Returns
    -------
    float, or (float, bool) when ``with_flag`` is set.
    """
    # {<x, a> = r} is {<x, a / 2^e> = r / 2^e}: with the peak of a in
    # [1/2, 1) neither the norm nor the density over- or underflows
    arr, r, _ = _scaled_at(as_weight_vector(a), r)
    value, flag = _section_at(arr, r)
    return (value, flag) if with_flag else value


def _section_at(arr: np.ndarray, r: float) -> tuple[float, bool]:
    """:func:`parallel_section` of a validated array, with its flag."""
    n = arr.size
    w = _nonzero_weights(arr)
    if w.size == 1:
        h = float(w[0])
        if abs(r) < h:
            return 2.0 ** (n - 1), False
        if abs(r) == h:
            return 2.0 ** (n - 1), True
        return 0.0, False
    # the norm as np.linalg.norm computes it, one dot
    density = _truncated_power_sums(w[None], r, w.size - 1)[0]
    return 2.0**n * math.sqrt(arr.dot(arr)) * density, False


def central_volume(a) -> float:
    """``Vol_{n-1}(Q_n \\cap a^\\perp)``; invariant under scaling of ``a``."""
    return _central(as_weight_vector(a))


def _central(arr: np.ndarray) -> float:
    """:func:`central_volume` of a validated array."""
    return _central_rows(arr[None, :])[0]


def central_volumes(directions) -> np.ndarray:
    """:func:`central_volume` of each row of a ``(B, n)`` array, bit for bit.

    The array is validated once: two-dimensional, finite and every row
    with a nonzero coordinate.  A row with more than
    ``MAX_CLOSED_FORM_WEIGHTS`` weights above the relative floor is
    rejected by the density kernel.
    """
    # row-major, so that each row's norm is the dot product it gets alone
    rows = np.ascontiguousarray(directions, dtype=float)
    if rows.ndim != 2 or rows.size == 0:
        raise InvalidInputError("directions must be a nonempty 2-d array, one per row")
    if not np.all(np.isfinite(rows)):
        raise InvalidInputError("directions must be finite")
    if not np.all(np.any(rows, axis=1)):
        raise InvalidInputError("every direction must have a nonzero coordinate")
    return np.array(_central_rows(rows))


def _central_rows(rows: np.ndarray) -> list[float]:
    """Central volumes of the nonzero finite rows of ``rows``.

    The whole batch is scaled by :func:`~cube_sections.weights._unit_vector`
    and its unit rows' norms taken with ``np.vecdot``, each row bitwise as
    it would be alone.  Each group of rows with ``m`` live weights takes one
    density call, ``m = 1`` included: a lone weight is on its plateau, which
    gives ``2^(n-1)`` bitwise, as sub-floor coordinates square below an ulp.
    Every volume is bitwise ``2^n |u| density_at(w, 0)`` of its live ``w``.
    """
    units = _unit_vector(rows)
    norms = np.sqrt(np.vecdot(units, units))
    size, live = _live(units)
    counts = np.count_nonzero(live, axis=1)
    n = rows.shape[1]
    volumes = np.empty(len(rows))
    for m in set(counts.tolist()):
        group = np.flatnonzero(counts == m)
        w = size[group][live[group]].reshape(-1, m)
        volumes[group] = 2.0**n * norms[group] * _truncated_power_sums(w, 0.0, m - 1)
    return volumes.tolist()


def normalized_section(a) -> float:
    """Scale-invariant section function ``pi * central volume / 2^(n-1)``.

    Equals ``pi`` at coordinate directions and ``sqrt(2) pi`` at two-
    coordinate diagonals, the extremes of the Hadwiger-Ball bounds.
    """
    return _normalized(as_weight_vector(a))


def _normalized(arr: np.ndarray) -> float:
    """:func:`normalized_section` of a validated array."""
    return math.pi * _central(arr) / 2.0 ** (arr.size - 1)


def _facet_index(k: int, n: int) -> int:
    """``k`` as an index in ``[0, n)``; negative ``k`` counts from the end."""
    if not -n <= k < n:
        raise InvalidInputError(f"index {k} out of range for size {n}")
    return k % n


def facet_section_volume(a, k: int) -> float:
    """``(n-2)``-volume of the slice of facet ``x_k = 1`` by ``a^perp``.

    Computed from the reduced weights ``a`` without coordinate ``k``:
    the slice volume equals ``s_reduced(a_k)`` over the (n-1)-cube.
    Degenerate case ``a = +-e_k`` returns 0.
    """
    u = as_unit_vector(a)
    return _facet_terms(u, _facet_index(k, u.size))[0]


def _facet_terms(u: np.ndarray, k: int, marginal=None) -> tuple[float, float, float]:
    """Facet slice of unit ``u`` at ``x_k = 1``, the cone over it, and the slab spread.

    The spread is ``F(|u_k|) - F(-|u_k|)`` for the CDF ``F`` of the weights
    without coordinate ``k``; one kernel call gives all three, unless their
    density and spread come as ``marginal``.  ``k`` is in ``[0, n)``.
    """
    rest = np.delete(u, k)
    if not np.any(rest):
        # no weight left: an empty slice and cone, and the point mass at 0
        return 0.0, 0.0, 1.0
    # a single weight is a box, whose density the kernel takes at its
    # support endpoint as the limit from inside
    density, spread = marginal or _density_and_spread(_nonzero_weights(rest), abs(float(u[k])))
    norm = float(np.linalg.norm(rest))
    slice_ = 2.0**rest.size * norm * density
    return slice_, slice_ / ((u.size - 1) * norm), spread


def _report_terms(u: np.ndarray) -> tuple[float, list[tuple[float, float, float]]]:
    """The central volume of unit ``u`` and :func:`_facet_terms` of ``u`` for every ``k``.

    One :func:`~cube_sections.density._facet_marginals` call on the live
    weights gives the density at 0 and every live facet; a zero ``u_k``
    leaves the live weights as its rest, at ``x = 0``.  Only a coordinate
    under the floor but not zero takes its own call.  The peak's rest is read
    from the live weights of ``u`` too, without any weight under the floor
    of ``u`` but not of that rest: away from a kink, leaving out a weight
    ``e`` moves a density by the order of ``e^2``.
    """
    size, mask = _live(u)
    live = np.flatnonzero(mask)
    density, marginals = _facet_marginals(size[live])
    shared = dict(zip(live.tolist(), marginals))
    for k in np.flatnonzero(u == 0.0).tolist():
        shared[k] = density, 0.0
    volume = 2.0**u.size * math.sqrt(u.dot(u)) * density
    return volume, [_facet_terms(u, k, shared.get(k)) for k in range(u.size)]


def cone_volume(a, k: int) -> float:
    """Volume of ``conv(0 \\cup (S_k \\cap a^\\perp))`` for facet ``x_k = 1``.

    Cone over the facet slice with apex at the origin: base times the
    distance ``1/sqrt(1 - a_k^2)`` from 0 to the slice's affine hull,
    divided by the dimension ``n - 1``.
    """
    u = as_unit_vector(a)
    if u.size < 2:
        raise InvalidInputError("cone volumes need dimension at least 2")
    return _facet_terms(u, _facet_index(k, u.size))[1]


def slab_identity_check(a, k: int) -> tuple[float, float]:
    """Central volume vs the orthogonal-projection slab formula.

    Projecting ``Q_n \\cap a^\\perp`` onto the facet ``x_k = 1`` scales
    volumes by ``a_k`` and lands on the slab ``{|<x, reduced a>| <= a_k}``
    of the (n-1)-cube, giving

        s_a(0) = 2^(n-1) (F(a_k) - F(-a_k)) / a_k

    with ``F`` the CDF of the reduced weight sum.  Returns ``(lhs, rhs)``.
    """
    u = as_unit_vector(a)
    k = _facet_index(k, u.size)
    if u[k] == 0.0:
        raise InvalidInputError("slab identity needs a_k != 0")
    return _section_at(u, 0.0)[0], _slab_rhs(u, k, _facet_terms(u, k)[2])


def _slab_rhs(u: np.ndarray, k: int, spread: float) -> float:
    """Right-hand side of the slab identity at unit ``u`` with ``u_k != 0``."""
    return 2.0 ** (u.size - 1) * spread / abs(float(u[k]))


@dataclass(frozen=True)
class SectionReport:
    """Full central-section summary for one direction.

    Attributes
    ----------
    direction : numpy.ndarray
        Unit-normalized copy of the input.
    volume : float
        ``(n-1)``-volume of the central section.
    sigma : float
        Normalized section value ``pi * volume / 2^(n-1)``.
    cone_volumes, facet_section_volumes : numpy.ndarray
        Per-facet cone and slice volumes (facets ``x_k = 1`` only; sign
        symmetry makes the opposite facets redundant).
    degenerate_facets : tuple
        Indices ``k`` with ``a_k = 0``.  The slab identity divides by
        ``a_k`` and is undefined there, so those indices are skipped in
        ``slab_max_error``; such boundary directions are also exactly the
        ones where the cone-sum identity may fail.
    cone_sum : float
        Sum of cone volumes; equals ``volume / 2`` for interior directions.
    slab_max_error : float
        Worst ``|lhs - rhs|`` of the slab identity over ``a_k != 0``.
    """

    direction: np.ndarray
    volume: float
    sigma: float
    cone_volumes: np.ndarray
    facet_section_volumes: np.ndarray
    degenerate_facets: tuple = field(default_factory=tuple)
    cone_sum: float = 0.0
    slab_max_error: float = 0.0

    def to_dict(self) -> dict:
        return {
            "direction": [float(x) for x in self.direction],
            "volume": self.volume,
            "sigma": self.sigma,
            "cone_volumes": [float(x) for x in self.cone_volumes],
            "facet_section_volumes": [float(x) for x in self.facet_section_volumes],
            "degenerate_facets": list(self.degenerate_facets),
            "cone_sum": self.cone_sum,
            "slab_max_error": self.slab_max_error,
        }


def section_report(a) -> SectionReport:
    """Compute the central volume and all per-facet cross-checks."""
    u = as_unit_vector(a)
    n = u.size
    vol, terms = _report_terms(u)
    facets = np.array([slice_ for slice_, _, _ in terms])
    cones = np.array([cone for _, cone, _ in terms])
    slab_errors = [
        abs(vol - _slab_rhs(u, k, spread)) for k, (_, _, spread) in enumerate(terms) if u[k] != 0.0
    ]
    return SectionReport(
        direction=u,
        volume=vol,
        sigma=math.pi * vol / 2.0 ** (n - 1),
        cone_volumes=cones,
        facet_section_volumes=facets,
        degenerate_facets=tuple(int(k) for k in range(n) if u[k] == 0.0),
        cone_sum=float(np.sum(cones)),
        slab_max_error=max(slab_errors, default=0.0),
    )


def diagonal_direction(k: int, n: int) -> np.ndarray:
    """Canonical k-diagonal direction in dimension n: zeros then 1/sqrt(k)."""
    if not 1 <= k <= n:
        raise InvalidInputError(f"need 1 <= k <= n, got k={k}, n={n}")
    v = np.zeros(n)
    v[n - k :] = 1.0 / math.sqrt(k)
    return v


def diagonal_section_volume(n: int, k: int) -> float:
    """Central volume of a k-diagonal section of ``Q_n``."""
    return _central(diagonal_direction(k, n))
