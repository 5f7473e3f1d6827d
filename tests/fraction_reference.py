"""The exact corner sum in rational arithmetic, a reference for the tests.

It shares no code with :mod:`cube_sections.density`: every weight, point
and corner sum is a :class:`fractions.Fraction`, and the table covers all
``2^m`` sign patterns.
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
    corners = [(Fraction(0), 1)]  # (s, (-1)^(#pos))
    for x in w:
        corners = [(s - x, q) for s, q in corners] + [(s + x, -q) for s, q in corners]
    total = sum(q * (r - s) ** p for s, q in corners if s < r)
    return total / (2 ** len(w) * math.factorial(p) * math.prod(w))
