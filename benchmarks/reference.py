"""Reference values computed apart from the package's kernel.

Nothing here imports ``cube_sections``: these are the independent sides of
the benchmark's output checks.

* Section volumes come from the truncated-power sum evaluated in exact
  integer arithmetic.  Every float is a dyadic rational, so scaling the
  weights by one power of two turns them into integers and the sum is exact.
* Diagonal values come from the Irwin-Hall sum, in ``fractions.Fraction``.
* The roots of the two n=4 polynomial systems come from a lex Groebner
  basis (sympy), solved back from its univariate element.
"""

from __future__ import annotations

import math
from fractions import Fraction


def density_at_zero(weights) -> Fraction:
    """Exact density at 0 of ``sum_i w_i X_i`` with ``X_i ~ U[-1, 1]``.

    Each factor has density ``(H(x + w) - H(x - w)) / (2w)``, so the
    ``m``-fold convolution is

        f(x) = sum_eps (prod eps) (x + sum_i eps_i w_i)_+^(m-1)
               / (2^m (m-1)! prod w),

    summed over all ``eps`` in ``{-1, +1}^m``.  Exactly-zero weights are
    skipped; they do not change the distribution.
    """
    fracs = [Fraction(abs(float(w))) for w in weights if w != 0.0]
    if not fracs:
        raise ValueError("the zero vector has no density")
    den = max(f.denominator for f in fracs)
    ints = [int(f * den) for f in fracs]
    m = len(ints)
    sums, signs = [0], [1]
    for x in ints:
        sums = [s + x for s in sums] + [s - x for s in sums]
        signs = signs + [-p for p in signs]
    k = m - 1
    total = 0
    for s, p in zip(sums, signs):
        if s > 0:
            total += p * s**k
    # with w = ints / den: sum (s/den)^k / prod(ints/den) = total * den / prod(ints)
    return Fraction(total * den, 2**m * math.factorial(k) * math.prod(ints))


def section_volume(direction) -> float:
    """``(n-1)``-volume of the central section of ``[-1, 1]^n`` normal to ``direction``.

    ``2^n |a| f_a(0)``; only the final square root and rounding are inexact,
    so the relative error is a few units in the last place.
    """
    n = len(direction)
    norm_sq = sum(Fraction(float(x)) ** 2 for x in direction)
    return 2.0**n * float(density_at_zero(direction)) * math.sqrt(float(norm_sq))


def irwin_hall_density_at_zero(k: int) -> Fraction:
    """Density at 0 of a sum of ``k`` independent ``U[-1, 1]`` variables."""
    total = sum(
        (-1) ** j * math.comb(k, j) * (k - 2 * j) ** (k - 1)
        for j in range(k + 1)
        if k - 2 * j > 0
    )
    return Fraction(total, 2**k * math.factorial(k - 1))


def diagonal_sigma(k: int) -> float:
    """``sigma = |a| * 2 pi f_a(0)`` at a k-diagonal: ``sqrt(k) 2 pi f_k(0)``."""
    return math.sqrt(k) * 2.0 * math.pi * float(irwin_hall_density_at_zero(k))


def _positive_roots(equations, unknowns) -> list[tuple[float, ...]]:
    """Strictly positive real roots of a zero-dimensional polynomial system.

    The lex Groebner basis in ``unknowns`` ends in a polynomial of the last
    unknown alone.  Each earlier unknown is solved, for every positive
    partial root, from the basis element of lowest nonzero degree in it
    once the later unknowns are fixed; candidates are kept only when they
    satisfy the original equations to 40 digits.
    """
    import sympy as sp

    basis = sp.groebner(equations, *unknowns, order="lex")
    last = unknowns[-1]
    univariate = [g for g in basis.exprs if g.free_symbols == {last}]
    if len(univariate) != 1:
        raise ArithmeticError("lex basis has no single univariate element")
    partial = [
        {last: sp.Float(r.evalf(50), 50)}
        for r in sp.Poly(univariate[0], last).real_roots()
        if r > 0
    ]
    for var in reversed(unknowns[:-1]):
        extended = []
        for point in partial:
            polys = [
                sp.Poly(g.subs(point), var)
                for g in basis.exprs
                if var in g.free_symbols and g.free_symbols <= set(point) | {var}
            ]
            polys = [p for p in polys if p.degree() > 0 and max(abs(c) for c in p.coeffs()) > 1e-30]
            if not polys:
                raise ArithmeticError(f"basis does not determine {var}")
            lowest = min(polys, key=lambda p: p.degree())
            for value in sp.Poly(lowest, var).nroots(n=50):
                if value.is_real and value > 1e-12:
                    extended.append({**point, var: sp.Float(value, 50)})
        partial = extended
    roots = []
    for point in partial:
        if max(abs(sp.N(eq.subs(point), 50)) for eq in equations) <= 1e-40:
            roots.append(tuple(float(point[v]) for v in unknowns))
    return sorted(roots)


def unequal_system_roots() -> list[tuple[float, float, float]]:
    """Positive roots ``(a1, a3, a4)`` of the unequal-pair n=4 system.

    Sphere ``2 a1^2 + a3^2 + a4^2 = 1``, the sum constraint
    ``(a1 + a3 + a4) a4 = 1`` and Case A at ``(a1, a3, a1, a4)``:
    ``u^2 (1 + a1 a3) = 8 a1^2 a3 (a1 + a3)`` with ``u = 2 a1 + a3 - a4``.
    """
    import sympy as sp

    a1, a3, a4 = sp.symbols("a1 a3 a4")
    u = 2 * a1 + a3 - a4
    equations = [
        (a1 + a3 + a4) * a4 - 1,
        2 * a1**2 + a3**2 + a4**2 - 1,
        u**2 * (1 + a1 * a3) - 8 * a1**2 * a3 * (a1 + a3),
    ]
    roots = _positive_roots(equations, [a3, a4, a1])
    return sorted((r[2], r[0], r[1]) for r in roots)


def triple_system_roots() -> list[tuple[float, float]]:
    """Positive roots ``(a1, a4)`` of the triple-equal n=4 system.

    Sphere ``3 a1^2 + a4^2 = 1`` and Case D at ``(a1, a4, a1, a1)``:
    ``8 a1^3 (1 - a4^2) = (3 a1 - a4)^2 (a1 + a4) (1 - a1 a4)``.
    """
    import sympy as sp

    a1, a4 = sp.symbols("a1 a4")
    v = 3 * a1 - a4
    equations = [
        3 * a1**2 + a4**2 - 1,
        8 * a1**3 * (1 - a4**2) - v**2 * (a1 + a4) * (1 - a1 * a4),
    ]
    roots = _positive_roots(equations, [a4, a1])
    return sorted((r[1], r[0]) for r in roots)
