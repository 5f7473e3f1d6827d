"""The exact corner sum in rational arithmetic, a reference for the tests.

It shares no code with :mod:`cube_sections.density`: every weight and the
point are :class:`fractions.Fraction` values, written over their least
common denominator so that the table of all ``2^m`` sign patterns holds
integers, and the result is one Fraction.
"""

import math
from fractions import Fraction


def corner_sum(w, r, p) -> Fraction:
    """``sum_eps (-1)^(#pos) (r - s_eps)_+^p / (2^m p! prod |w|)``, exactly.

    ``s_eps = sum_i eps_i |w_i|`` runs over the ``2^m`` sign patterns of the
    nonzero weights ``w`` and ``#pos`` counts the positive signs; a term
    with ``s_eps >= r`` is 0, also for ``p = 0``.  At ``p = m - 1`` this is
    the density of ``sum w_i X_i`` at ``r`` and at ``p = m`` its
    distribution function, for ``X_i`` uniform on ``[-1, 1]``.  Floats and
    Fractions convert exactly.
    """
    w = [abs(Fraction(x)) for x in w]
    r = Fraction(r)
    q = math.lcm(r.denominator, *(x.denominator for x in w))
    # the weights and r times q, so the corner sums are integers
    ints, x = [int(y * q) for y in w], int(r * q)
    corners = [(0, 1)]  # (s, (-1)^(#pos))
    for y in ints:
        corners = [(s - y, c) for s, c in corners] + [(s + y, -c) for s, c in corners]
    total = sum(c * (x - s) ** p for s, c in corners if s < x)
    m = len(w)
    return Fraction(total * q**m, q**p * 2**m * math.factorial(p) * math.prod(ints))
