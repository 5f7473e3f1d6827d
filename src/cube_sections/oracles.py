"""Independent computation paths used to cross-validate the exact core.

Two deliberately different methods re-derive section volumes:

* panel-wise Gauss-Legendre quadrature of the oscillatory sinc-product
  integral, with the infinite tail integrated in closed form through
  sine/cosine-integral recurrences, and
* Monte Carlo estimation of the slab probability
  ``P(|sum a_i X_i - r| <= eps)``.

Nothing here touches the piecewise-polynomial machinery, so agreement with
:mod:`cube_sections.sections` is a genuine end-to-end check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .weights import InvalidInputError, _offset, as_weight_vector, nonzero_weights

__all__ = [
    "MonteCarloEstimate",
    "sinc_product_quadrature",
    "monte_carlo_section",
    "clt_diagonal_asymptote",
]


# Gauss-Legendre nodes per panel
_PANEL_ORDER = 16
# the default truncation certifies an envelope tail below this
_TAIL_BOUND_TARGET = 1e-10
# quadrature nodes summed per chunk, which bounds the memory of a call with
# many panels (a large shift); a call with at most this many nodes, such as
# every shift-0 call with sum |w| <= 6.4, is summed in one chunk
_CHUNK_NODES = 1 << 17


def _truncation(w: np.ndarray, truncation: float | None) -> float:
    """``truncation``, or where the envelope bound certifies the tail.

    The bound ``prod |sinc(w_i t)| <= 1 / (t^m prod w_i)`` puts the tail
    beyond ``T`` below ``_TAIL_BOUND_TARGET``; ``T`` is clamped to
    [20, 4000], which is harmless because the tail beyond the truncation
    is then added analytically.
    """
    if truncation is not None:
        return float(truncation)
    m = w.size
    prod_w = float(np.prod(w))
    t = ((m - 1) * prod_w * _TAIL_BOUND_TARGET) ** (-1.0 / (m - 1))
    return float(min(max(t, 20.0), 4000.0))


def _trig_product_terms(w: np.ndarray, shift: float) -> list[tuple[float, float, bool]]:
    """Expand ``prod sin(w_i t) * cos(shift t)`` into pure sin/cos terms.

    Returns triples ``(coefficient, frequency >= 0, is_sine)``.  The
    factors are folded in one at a time by the product-to-sum rules

        sin x sin v = (cos(x - v) - cos(x + v)) / 2,
        cos x sin v = (sin(x + v) - sin(x - v)) / 2,
        sin x cos v = (sin(x + v) + sin(x - v)) / 2,
        cos x cos v = (cos(x + v) + cos(x - v)) / 2,

    and a negative frequency flips the sign of a sine term.
    """
    terms = [(1.0, float(w[0]), True)]
    factors = [(float(v), True) for v in w[1:]] + ([(float(shift), False)] if shift != 0.0 else [])
    for v, factor_is_sine in factors:
        out = []
        for coef, om, is_sine in terms:
            sine, half = is_sine != factor_is_sine, 0.5 * coef
            plus = -half if is_sine and factor_is_sine else half
            minus = -half if factor_is_sine and not is_sine else half
            for c, f in ((plus, om + v), (minus, om - v)):
                out.append((-c, -f, True) if sine and f < 0.0 else (c, abs(f), sine))
        terms = out
    return terms


def _tail_trig_integral(m: int, omega: float, is_sine: bool, T: float) -> float:
    """``int_T^inf trig(omega t) / t^m dt``, ``m >= 2``, by upward recurrence from Si/Ci."""
    if omega == 0.0:
        return 0.0 if is_sine else T ** (1 - m) / (m - 1)
    from scipy.special import sici

    si, ci = sici(omega * T)
    s = math.pi / 2.0 - float(si)  # int_T^inf sin(omega t)/t dt
    c = -float(ci)  # int_T^inf cos(omega t)/t dt
    for mu in range(2, m + 1):
        denom = (mu - 1) * T ** (mu - 1)
        s_next = math.sin(omega * T) / denom + omega / (mu - 1) * c
        c_next = math.cos(omega * T) / denom - omega / (mu - 1) * s
        s, c = s_next, c_next
    return s if is_sine else c


def sinc_product_quadrature(a, *, cosine_shift: float = 0.0, truncation: float | None = None) -> float:
    """``int prod_i sin(a_i t)/(a_i t) * cos(cosine_shift * t) dt`` over the line.

    Gauss-Legendre panels no longer than half the fastest oscillation
    period cover ``[0, T]``; the remainder ``[T, inf)`` is integrated in
    closed form after expanding the sine product into single-frequency
    terms.  With the default shift 0 this is the raw section integral
    ``I(a)``; a nonzero shift yields ``2 pi f_a(shift)`` for Fourier
    cross-checks.  ``T`` is ``truncation`` if given, and otherwise where
    the envelope bound puts the tail below 1e-10, clamped to [20, 4000].
    At or past the end of the support, ``|cosine_shift| >= sum |a_i|``,
    the density is 0 and so is the result, with no quadrature.

    Raises
    ------
    InvalidInputError
        If fewer than two coordinates are nonzero (not integrable), or the
        shift is not finite.
    """
    if not math.isfinite(cosine_shift):
        # the panel width pi / (sum w + |shift|) would be 0 or NaN
        raise InvalidInputError("cosine shift must be finite")
    w = nonzero_weights(as_weight_vector(a))
    if w.size < 2:
        raise InvalidInputError(
            "sinc-product quadrature needs at least two nonzero weights"
        )
    total = float(np.sum(w))
    if abs(cosine_shift) >= total:
        return 0.0
    m = w.size
    T = _truncation(w, truncation)

    panel = math.pi / (total + abs(cosine_shift))
    count = max(1, int(math.ceil(T / panel)))
    nodes, weights = np.polynomial.legendre.leggauss(_PANEL_ORDER)
    chunks = []
    step = _CHUNK_NODES // _PANEL_ORDER
    for lo in range(0, count, step):
        # the panel edges, bitwise those of np.linspace(0, T, count + 1)
        hi = min(lo + step, count)
        part = np.arange(lo, hi + 1) * (T / count)
        if hi == count:
            part[-1] = T
        half = 0.5 * np.diff(part)
        centers = 0.5 * (part[:-1] + part[1:])
        t = (centers[:, None] + half[:, None] * nodes[None, :]).ravel()
        quad_w = (half[:, None] * weights[None, :]).ravel()
        integrand = np.prod(np.sinc(np.multiply.outer(t, w) / np.pi), axis=-1)
        if cosine_shift != 0.0:
            integrand = integrand * np.cos(cosine_shift * t)
        chunks.append(float(quad_w @ integrand))
    main = math.fsum(chunks)

    prod_w = float(np.prod(w))
    tail = math.fsum(
        coef * _tail_trig_integral(m, om, is_sine, T)
        for coef, om, is_sine in _trig_product_terms(w, cosine_shift)
    ) / prod_w
    return 2.0 * (main + tail)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Slab Monte Carlo result; ``std_error`` is the standard error of ``mean``."""

    mean: float
    std_error: float
    samples: int
    slab_halfwidth: float

    def to_dict(self) -> dict:
        return asdict(self)


_BATCH = 1 << 18


def monte_carlo_section(
    a,
    r: float = 0.0,
    samples: int = 1_000_000,
    rng_seed: int = 0,
) -> MonteCarloEstimate:
    """Estimate ``s_a(r)`` by counting cube samples in a thin slab.

    The estimator is ``2^n |a| P_hat / (2 eps)`` with
    ``P_hat = fraction of |<x, a> - r| <= eps`` and the half-width
    ``eps = 0.01 sum |a_i|``; the symmetric slab makes the leading bias
    ``O(eps^2)`` at ``r = 0``.  Batches draw from streams
    spawned off one seed sequence, and aggregation uses exact integer
    counts, so the result is reproducible for a fixed ``rng_seed``.
    """
    arr = as_weight_vector(a)
    r = _offset(r)
    if samples < 1:
        raise InvalidInputError("need at least one sample")
    if rng_seed < 0:
        raise InvalidInputError("rng seed must be nonnegative")
    eps = 0.01 * float(np.sum(np.abs(arr)))
    if not eps > 0.0:
        # the weights are so small that the half-width underflows
        raise InvalidInputError("slab halfwidth must be positive")

    sizes = [_BATCH] * (samples // _BATCH)
    if samples % _BATCH:
        sizes.append(samples % _BATCH)
    streams = np.random.SeedSequence(rng_seed).spawn(len(sizes))

    def run(args) -> int:
        size, stream = args
        rng = np.random.default_rng(stream)
        proj = rng.uniform(-1.0, 1.0, size=(size, arr.size)) @ arr
        return int(np.count_nonzero(np.abs(proj - r) <= eps))

    hits = sum(map(run, zip(sizes, streams)))

    p_hat = hits / samples
    factor = 2.0**arr.size * float(np.linalg.norm(arr)) / (2.0 * eps)
    return MonteCarloEstimate(
        mean=factor * p_hat,
        std_error=factor * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples),
        samples=samples,
        slab_halfwidth=eps,
    )


def clt_diagonal_asymptote(n: int) -> float:
    """CLT prediction ``sqrt(6/pi) * 2^(n-1)`` for the n-diagonal volume.

    The n-diagonal section value tends to this from below as the
    normalized uniform sum approaches a Gaussian.
    """
    if n < 2:
        raise InvalidInputError("asymptote defined for n >= 2")
    return math.sqrt(6.0 / math.pi) * 2.0 ** (n - 1)
