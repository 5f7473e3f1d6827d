"""Multistart search and classification of critical section directions.

Critical directions of the section-volume functional on the unit sphere
are located by a damped Newton iteration on the stationarity system
(gradient parallel to the direction, unit norm), started from every
diagonal direction plus a batch of random seeds.  Converged points are
folded into the closed positive orthant, deduplicated, and classified by
the eigenvalues of a finite-difference tangent Hessian.

Directions with zero coordinates are genuine non-smooth points; the
iteration drops coordinates that collapse below a threshold and recurses
on the reduced dimension, and such points are certified through the
degenerate verdicts of :func:`cube_sections.criticality.criticality_residuals`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .criticality import _sinc_table, criticality_residuals, grad_sinc_product_integral
from .sections import central_volume, diagonal_direction, normalized_section
from .weights import InvalidInputError, as_weight_vector

__all__ = [
    "ScanConfig",
    "CriticalPoint",
    "canonicalize",
    "refine_critical",
    "classify_critical_point",
    "scan",
]

_ZERO_COORD_TOL = 1e-7
_CERTIFY_TOL = 1e-8
_SNAP_TOL = 1e-7
_CLASSIFY_EIG_TOL = 1e-6
_GLOBAL_VALUE_TOL = 1e-9
# each coordinate below ~1e-3 costs the corner-table gradient and Hessian
# roughly three digits (the alternating corner sums are divided by the
# weight product), so once Newton stalls with coordinates this small its
# residual has sunk into cancellation noise and the only sound move is to
# commit them to zero
_STALL_COLLAPSE_TOL = 1e-3
# at diagonals with a degenerate sphere Hessian the gradient is quadratic
# in the offset, so Newton residual-converges while still ~1e-6 away; a
# snap from that far is accepted only when certified not to worsen the
# stationarity gap
_WIDE_SNAP_TOL = 1e-4


@dataclass(frozen=True)
class ScanConfig:
    """Parameters of one multistart scan."""

    dimension: int
    seed_count: int = 500
    rng_seed: int = 0
    newton_max_iters: int = 60
    newton_tol: float = 1e-11
    dedup_tol: float = 1e-6

    def __post_init__(self):
        if self.dimension < 2:
            raise InvalidInputError("scan needs dimension at least 2")
        if self.seed_count < 0:
            raise InvalidInputError("seed_count must be nonnegative")
        if not (self.newton_tol > 0.0 and self.dedup_tol > 0.0):
            raise InvalidInputError("tolerances must be positive")


@dataclass(frozen=True)
class CriticalPoint:
    """A deduplicated critical direction found by :func:`scan`."""

    canonical: np.ndarray
    sigma: float
    volume: float
    classification: str
    basin_count: int
    diagonal_k: int | None

    def to_dict(self) -> dict:
        return {
            "direction": [float(v) for v in self.canonical],
            "sigma": self.sigma,
            "volume": self.volume,
            "classification": self.classification,
            "basin_count": self.basin_count,
            "diagonal_k": self.diagonal_k,
        }


def canonicalize(a) -> np.ndarray:
    """Representative of the symmetry orbit: fold signs, sort ascending, unit norm."""
    arr = np.sort(np.abs(as_weight_vector(a, allow_zero=True)))
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise InvalidInputError("cannot canonicalize the zero vector")
    return arr / norm


def _snap_to_diagonal(a: np.ndarray, tol: float = _SNAP_TOL) -> np.ndarray:
    live = np.abs(a) > _ZERO_COORD_TOL
    k = int(np.count_nonzero(live))
    if k == 0:
        return a
    cand = np.where(live, 1.0 / math.sqrt(k), 0.0)
    if float(np.max(np.abs(a - cand))) <= tol:
        return cand
    return a


def _stationarity_gap(a: np.ndarray) -> float:
    """Max norm of the projected gradient; linear in the distance to a
    critical direction, unlike the balance residuals which degenerate
    quadratically near the coordinate axes."""
    g = grad_sinc_product_integral(a)
    lam = float(a @ g)
    return float(np.max(np.abs(g - lam * a)))


def _certified(a: np.ndarray) -> bool:
    report = criticality_residuals(a, tol=_CERTIFY_TOL)
    return report.verdict != "not-critical" and _stationarity_gap(a) <= _CERTIFY_TOL


def _gap_gated_snap(a: np.ndarray, slack: float) -> np.ndarray:
    """Snap to the nearest diagonal unless that worsens the stationarity gap."""
    wide = _snap_to_diagonal(a, tol=_WIDE_SNAP_TOL)
    if wide is a or _stationarity_gap(wide) <= _stationarity_gap(a) + slack:
        return wide
    return _snap_to_diagonal(a)


def refine_critical(
    seed, *, max_iters: int = 60, tol: float = 1e-11
) -> np.ndarray | None:
    """Polish one seed to a certified critical direction, or ``None``.

    Newton iteration on the stationarity system in the direction and its
    multiplier, with the exact Jacobian ``[[H - lambda, -a], [a^T, 0]]``
    from the corner-table Hessian ``H`` of ``I`` and step halving;
    coordinates collapsing below 1e-7 are dropped and the reduced problem
    is solved recursively, and a stalled iterate with coordinates small
    enough to drown the residual in cancellation noise is retried with
    those coordinates zeroed.  The
    returned vector is unit, nonnegative, and snapped exactly onto a
    diagonal when doing so does not worsen the stationarity gap.
    """
    a = np.abs(as_weight_vector(seed, allow_zero=True))
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return None
    a = a / norm

    live = a > _ZERO_COORD_TOL
    if not np.all(live):
        if not np.any(live):
            return None
        inner = refine_critical(a[live], max_iters=max_iters, tol=tol)
        if inner is None:
            return None
        out = np.zeros_like(a)
        out[live] = inner
        out = _gap_gated_snap(out, tol)
        return out if _certified(out) else None

    if _certified(a):
        return _gap_gated_snap(a, tol)

    n = a.size
    lam = float(a @ grad_sinc_product_integral(a))

    def residual(vec: np.ndarray, mul: float) -> np.ndarray:
        g = _sinc_table(vec).grad - mul * vec
        return np.append(g, 0.5 * (float(vec @ vec) - 1.0))

    G = residual(a, lam)
    for _ in range(max_iters):
        if float(np.max(np.abs(G))) <= tol:
            break
        J = np.zeros((n + 1, n + 1))
        J[:n, :n] = _sinc_table(a, hessian=True).hessian - lam * np.eye(n)
        J[:n, n] = -a
        J[n, :n] = a
        try:
            step = np.linalg.solve(J, -G)
        except np.linalg.LinAlgError:
            return None
        base = float(np.max(np.abs(G)))
        scale = 1.0
        accepted = False
        for _ in range(30):
            a_new = a + scale * step[:n]
            lam_new = lam + scale * step[n]
            if np.all(np.isfinite(a_new)) and np.linalg.norm(a_new) > 0.25:
                if np.any(np.abs(a_new) <= _ZERO_COORD_TOL):
                    return refine_critical(a_new, max_iters=max_iters, tol=tol)
                G_new = residual(a_new, lam_new)
                if float(np.max(np.abs(G_new))) < base:
                    a, lam, G = a_new, lam_new, G_new
                    accepted = True
                    break
            scale *= 0.5
        if not accepted:
            return _collapse_stalled(a, max_iters=max_iters, tol=tol)
    else:
        if float(np.max(np.abs(G))) > tol:
            return _collapse_stalled(a, max_iters=max_iters, tol=tol)

    a = np.abs(a) / float(np.linalg.norm(a))
    a = _gap_gated_snap(a, tol)
    return a if _certified(a) else None


def _collapse_stalled(
    a: np.ndarray, *, max_iters: int, tol: float
) -> np.ndarray | None:
    """Zero out noise-dominated coordinates of a stalled iterate and retry."""
    tiny = np.abs(a) <= _STALL_COLLAPSE_TOL
    if not np.any(tiny) or np.all(tiny):
        return None
    return refine_critical(np.where(tiny, 0.0, a), max_iters=max_iters, tol=tol)


_PROBE_STEP = 3e-2
_PROBE_NOISE = 1e-9


def classify_critical_point(u, *, step: float = 1e-4) -> str:
    """Classify a critical direction by its behavior on the tangent sphere.

    The normalized section volume is sampled on a tangent chart through
    ``u``; Richardson-extrapolated second differences give the Hessian,
    whose eigenvalue signs yield ``local-min``/``local-max``/``saddle``.
    Diagonal directions can be Hessian-degenerate (the second-order terms
    cancel identically and the character is quartic), so near-zero
    eigenvalues trigger a direct sign probe of symmetric differences
    along the eigenvector fan.  Points attaining the extreme values pi
    and sqrt(2) pi are promoted to ``global-min`` and ``global-max``.
    """
    u = as_weight_vector(u, allow_zero=True)
    u = u / float(np.linalg.norm(u))
    basis = null_space(u[None, :])
    d = basis.shape[1]

    def value(t: np.ndarray) -> float:
        return normalized_section(u + basis @ t)

    f0 = value(np.zeros(d))

    def hessian(hh: float) -> np.ndarray:
        H = np.empty((d, d))
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = hh
            H[i, i] = (value(ei) - 2.0 * f0 + value(-ei)) / hh**2
            for j in range(i + 1, d):
                ej = np.zeros(d)
                ej[j] = hh
                H[i, j] = (
                    value(ei + ej) - value(ei - ej) - value(-ei + ej) + value(-ei - ej)
                ) / (4.0 * hh**2)
                H[j, i] = H[i, j]
        return H

    H = (4.0 * hessian(step / 2.0) - hessian(step)) / 3.0
    eigs, vecs = np.linalg.eigh(H)
    if np.all(np.abs(eigs) >= _CLASSIFY_EIG_TOL):
        if np.all(eigs > 0.0):
            label = "local-min"
        elif np.all(eigs < 0.0):
            label = "local-max"
        else:
            label = "saddle"
    else:
        # Hessian-degenerate point: the leading tangent behavior can be
        # cubic (odd), so probe one-sided differences over an eigenvector
        # fan and both orientations of every direction.
        directions = [vecs[:, i] for i in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                directions.append((vecs[:, i] + vecs[:, j]) / math.sqrt(2.0))
                directions.append((vecs[:, i] - vecs[:, j]) / math.sqrt(2.0))
                directions.append((vecs[:, i] + 2.0 * vecs[:, j]) / math.sqrt(5.0))
                directions.append((2.0 * vecs[:, i] - vecs[:, j]) / math.sqrt(5.0))
        seen_pos = seen_neg = seen_flat = False
        for v in directions:
            for sign in (1.0, -1.0):
                g = value(sign * _PROBE_STEP * v) - f0
                if g > _PROBE_NOISE:
                    seen_pos = True
                elif g < -_PROBE_NOISE:
                    seen_neg = True
                else:
                    seen_flat = True
        if seen_pos and seen_neg:
            label = "saddle"
        elif seen_flat or not (seen_pos or seen_neg):
            label = "undetermined"
        else:
            label = "local-min" if seen_pos else "local-max"

    if label == "saddle" or label == "undetermined":
        return label
    sigma = normalized_section(u)
    if label == "local-min" and abs(sigma - math.pi) <= _GLOBAL_VALUE_TOL:
        return "global-min"
    if label == "local-max" and abs(sigma - math.sqrt(2.0) * math.pi) <= _GLOBAL_VALUE_TOL:
        return "global-max"
    return label


def _diagonal_index(canonical: np.ndarray) -> int | None:
    n = canonical.size
    for k in range(1, n + 1):
        if float(np.max(np.abs(canonical - diagonal_direction(k, n)))) <= 1e-9:
            return k
    return None


def scan(config: ScanConfig) -> list[CriticalPoint]:
    """Find and classify critical directions from a deterministic multistart.

    Seeds are the ``n`` diagonal directions followed by ``seed_count``
    folded standard-normal directions from a seeded generator.  Converged,
    certified points are merged within ``dedup_tol`` in max norm on their
    canonical representatives and reported sorted by coordinates, with the
    number of seeds attracted to each point.
    """
    n = config.dimension
    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed))
    seeds = [diagonal_direction(k, n) for k in range(1, n + 1)]
    for _ in range(config.seed_count):
        vec = np.abs(rng.standard_normal(n))
        while float(np.linalg.norm(vec)) < 1e-9:
            vec = np.abs(rng.standard_normal(n))
        seeds.append(vec / float(np.linalg.norm(vec)))

    found: list[np.ndarray] = []
    counts: list[int] = []
    for seed in seeds:
        result = refine_critical(
            seed, max_iters=config.newton_max_iters, tol=config.newton_tol
        )
        if result is None:
            continue
        rep = canonicalize(result)
        for idx, known in enumerate(found):
            if float(np.max(np.abs(rep - known))) <= config.dedup_tol:
                counts[idx] += 1
                break
        else:
            found.append(rep)
            counts.append(1)

    order = sorted(range(len(found)), key=lambda i: tuple(found[i]))
    points = []
    for i in order:
        rep = found[i]
        points.append(
            CriticalPoint(
                canonical=rep,
                sigma=normalized_section(rep),
                volume=central_volume(rep),
                classification=classify_critical_point(rep),
                basin_count=counts[i],
                diagonal_k=_diagonal_index(rep),
            )
        )
    return points
