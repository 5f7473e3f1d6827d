"""Weight vectors for sums of independent uniform random variables.

A weight vector ``a`` describes the linear form ``sum_i a_i X_i`` with the
``X_i`` independent and uniform on ``[-1, 1]``.  The same vector, read as a
hyperplane normal, selects the central section ``Q_n \\cap a^\\perp`` of the
cube ``Q_n = [-1, 1]^n``.  Vectors are kept exactly as given; nothing in this
module normalizes silently.

A public function of the package coerces and validates its input once,
through ``as_weight_vector``, ``as_unit_vector`` or ``nonzero_weights``
(``sections.central_volumes`` checks its batch of rows in one pass), and
an offset ``r`` through ``_offset``.
Past that boundary only validated float arrays travel, and the private
forms ``_unit_vector`` and ``_nonzero_weights`` do the same arithmetic on
them without checking again; ``_live`` alone decides which weights are live.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "InvalidInputError",
    "as_weight_vector",
    "as_unit_vector",
    "nonzero_weights",
]

# weights this far below the largest one fall under the ulp of the total
# weight sum: the float corner sums of the criticality kernel cancel on
# them, and the closed form's breakpoints (density._merged_breakpoints) merge
# them away.  The exact corner sums need no floor; dropping such a weight
# perturbs a density by less than its relative size
RELATIVE_WEIGHT_FLOOR = 1e-14


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


def as_weight_vector(a, *, allow_zero: bool = False) -> np.ndarray:
    """Coerce ``a`` to a 1-d float array and validate it.

    Parameters
    ----------
    a : array_like
        Sequence of real weights.
    allow_zero : bool
        Permit the all-zero vector.  By default at least one coordinate
        must be nonzero.

    Returns
    -------
    numpy.ndarray
        A fresh float64 copy of the input.
    """
    arr = np.array(a, dtype=float, ndmin=1)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError("weight vector must be a nonempty 1-d sequence")
    if not np.isfinite(arr).all():
        raise InvalidInputError("weight vector must be finite")
    if not allow_zero and not arr.any():
        raise InvalidInputError("weight vector must have a nonzero coordinate")
    return arr


def as_unit_vector(a) -> np.ndarray:
    """Coerce ``a`` and rescale it to Euclidean norm 1."""
    return _unit_vector(as_weight_vector(a))


def _unit_vector(arr: np.ndarray) -> np.ndarray:
    """:func:`as_unit_vector` of a validated nonzero vector, or of each row of a batch.

    A row of a row-major batch comes out bitwise as it does alone.
    """
    # divide out the peak first so squaring cannot underflow to zero
    arr = arr / np.max(np.abs(arr), axis=-1, keepdims=True)
    return arr / np.sqrt(np.vecdot(arr, arr))[..., None]


def _binade_scaled(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """``arr / 2^e`` with ``2^(e-1) <= max |arr| < 2^e``, and ``e``; exact but for subnormals."""
    e = math.frexp(max(map(abs, arr.tolist())))[1]
    return np.ldexp(arr, -e), e


def _scaled_at(arr: np.ndarray, r) -> tuple[np.ndarray, float, int]:
    """``arr`` and the offset ``r`` over ``2^e`` of :func:`_binade_scaled`, and ``e``.

    An offset scaled past the float range lies past the support.
    """
    arr, e = _binade_scaled(arr)
    with np.errstate(over="ignore"):
        return arr, float(np.ldexp(_offset(r), -e)), e


def _offset(r) -> float:
    """``r`` as a float, rejecting NaN; an infinite offset lies past any support."""
    r = float(r)
    if math.isnan(r):
        raise InvalidInputError("offset must not be NaN")
    return r


def nonzero_weights(a) -> np.ndarray:
    """Absolute values of the effectively nonzero coordinates, order kept.

    Zero weights contribute the constant 0 to ``sum a_i X_i`` and a sign
    flip leaves each uniform factor invariant in distribution, so the
    density only depends on this reduction.  Coordinates below
    ``RELATIVE_WEIGHT_FLOOR`` times the largest one are treated as zero.
    """
    return _nonzero_weights(as_weight_vector(a, allow_zero=True))


def _nonzero_weights(arr: np.ndarray) -> np.ndarray:
    """:func:`nonzero_weights` of a validated nonempty float array."""
    size, live = _live(arr)
    return size[live]


def _live(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``|arr|`` and its mask of entries above ``RELATIVE_WEIGHT_FLOOR`` times their row's peak."""
    size = np.abs(arr)
    return size, size > RELATIVE_WEIGHT_FLOOR * size.max(axis=-1, keepdims=True)
