"""Piecewise-polynomial container used for exact uniform-sum densities.

Pieces are stored in a local coordinate centered at each interval midpoint,
which keeps the coefficients well conditioned: the raw monomial basis on an
interval far from the origin mixes wildly different scales, while the
midpoint-local basis keeps every power of order ``(h/2)^i``.

Evaluation is right-continuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .weights import InvalidInputError

__all__ = ["PiecewisePolynomial"]


@dataclass(frozen=True)
class PiecewisePolynomial:
    """A compactly supported piecewise polynomial.

    Attributes
    ----------
    breakpoints : numpy.ndarray
        Strictly increasing knots ``t_0 < ... < t_m``; the function is
        identically zero outside ``[t_0, t_m]``.
    coefficients : numpy.ndarray
        Shape ``(m, d+1)``; row ``j`` holds ascending coefficients of the
        polynomial on ``[t_j, t_{j+1}]`` in the variable ``x - mid_j`` with
        ``mid_j`` the interval midpoint.
    """

    breakpoints: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        co = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        if bp.ndim != 1 or bp.size < 2:
            raise InvalidInputError("need at least two breakpoints")
        if np.any(np.diff(bp) <= 0):
            raise InvalidInputError("breakpoints must be strictly increasing")
        if co.shape[0] != bp.size - 1:
            raise InvalidInputError(
                f"{bp.size - 1} intervals but {co.shape[0]} coefficient rows"
            )
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coefficients", co)

    # -- basic geometry -------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.breakpoints[:-1] + self.breakpoints[1:])

    # -- evaluation ------------------------------------------------------

    def _piece_index(self, x: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.breakpoints, x, side="right") - 1

    def __call__(self, x):
        """Evaluate right-continuously; zero outside ``[t_0, t_m)``."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        idx = np.clip(self._piece_index(xv), 0, len(self.midpoints) - 1)
        u = xv - self.midpoints[idx]
        # ascending-power Horner, vectorized over the selected rows
        rows = self.coefficients[idx]
        out = np.zeros_like(xv)
        for i in range(self.coefficients.shape[1] - 1, -1, -1):
            out = out * u + rows[:, i]
        inside = (xv >= self.breakpoints[0]) & (xv < self.breakpoints[-1])
        out = np.where(inside, out, 0.0)
        return float(out[0]) if scalar else out

    # -- integration -----------------------------------------------------

    @cached_property
    def piece_integrals(self) -> np.ndarray:
        """Exact integral of each piece over its interval."""
        half = 0.5 * np.diff(self.breakpoints)
        out = np.empty(len(half))
        for j, h in enumerate(half):
            c = self.coefficients[j]
            # odd powers integrate to zero over the symmetric local interval
            out[j] = math.fsum(
                2.0 * c[i] * h ** (i + 1) / (i + 1) for i in range(0, c.size, 2)
            )
        return out

    @cached_property
    def total_integral(self) -> float:
        return float(math.fsum(self.piece_integrals))

    @cached_property
    def _cumulative_offsets(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.piece_integrals)])

    def cumulative(self, x) -> float | np.ndarray:
        """Integral from the left support endpoint up to ``x``."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        out = np.empty_like(xv)
        for i, xi in enumerate(xv):
            t0, tm = self.support
            if xi <= t0:
                out[i] = 0.0
            elif xi >= tm:
                out[i] = self.total_integral
            else:
                j = int(self._piece_index(np.asarray(xi)))
                c = self.coefficients[j]
                u = xi - self.midpoints[j]
                h = 0.5 * (self.breakpoints[j + 1] - self.breakpoints[j])
                inner = math.fsum(
                    c[k] * (u ** (k + 1) - (-h) ** (k + 1)) / (k + 1)
                    for k in range(c.size)
                )
                out[i] = self._cumulative_offsets[j] + inner
        return float(out[0]) if scalar else out

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "breakpoints": [float(t) for t in self.breakpoints],
            "pieces": [[float(c) for c in row] for row in self.coefficients],
            "basis": "midpoint-local",
        }
