"""Digests of ``section_report`` values, for bitwise comparison of two checkouts.

For each set of directions one SHA-256 is printed over the ``tobytes()`` of
every report's ``volume``, ``facet_section_volumes``, ``cone_volumes`` and
``cone_sum``, in direction order.  The sets are the ``report-highdim``
benchmark directions (coordinate magnitudes in [0.25, 1] with random signs,
n = 10..18) for rng seeds 1, 7 and 11, 15 standard-normal directions per
n = 10..18, and a cancelling set: the seed-1 directions with their last two
coordinates replaced by 1e-8 and 3e-9, where a float corner sum cancels.
One more line digests, for the first set, ``facet_section_volume`` and
``slab_identity_check`` at every facet ``k``, each computed alone rather
than in the report's one facet pass.  Another digests the exact views of
few weights on a seeded set of weights spread over 30 binades:
``density_at`` and ``cdf_at`` at points across the support for m = 2..8
weights, the breakpoints and coefficients of ``density_closed_form``, and
``facet_section_volume`` and ``slab_identity_check`` at every facet of
directions with n = 4..9 coordinates.  An ``oracles`` line digests the independent checks:
``sinc_product_quadrature`` of fixed unit directions at shifts 0, 0.3 and
1.5, and the mean, standard error and slab half-width of
``monte_carlo_section`` at three fixed seeds.  A ``fig1-grid`` line gives
the SHA-256 of the CSV that
``cli.main(["fig1-grid", "--resolution", "91"])`` prints, the Figure 1 grid
of 16,471 three-dimensional central volumes.  A last ``api`` line gives
one SHA-256 of the signatures of the package's public names
(``cube_sections.__all__``) in sorted order: ``inspect.signature``, a
class's constructor, and a constant's value.  Run it once per checkout, for
example

    python scripts/report_digest.py --src ../other/src
    python scripts/report_digest.py --src src

and compare the lines: equal digests mean bitwise equal reports.  With
``--errors`` each set's line also gives the largest and the median relative
error of the reports' ``volume`` against ``section_volume`` of
``benchmarks/reference.py``, an exact integer sum that shares no code with
the package; at n = 18 it takes about a second per direction.  It also
gives the largest relative error of the facet slices and of the slab
spreads ``F(|u_k|) - F(-|u_k|)`` that the report reads, at facets
k = 0, n//2 and n-1, against the exact corner sum of ``exact_facet`` below,
which shares no code with the package either.
"""

import argparse
import contextlib
import hashlib
import inspect
import io
import math
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

DIMENSIONS = range(10, 19)
UNIFORM_SEEDS = (1, 7, 11)
NORMAL_PER_DIMENSION = 15
GRID_RESOLUTION = 91
ORACLE_DIRECTIONS = ((1.0, 1.0), (0.6, 0.8), (1.0, 2.0, 2.0), (1.0, 1.0, 2.0, 2.0), (1.0, 2.0, 2.0, 1.0), (0.2, 0.2, 0.2, 0.9, 1.3))
ORACLE_SHIFTS = (0.0, 0.3, 1.5)
MONTE_CARLO_SEEDS = (0, 1, 2)


def direction_sets():
    """``(name, directions)`` pairs, drawn the same way in every checkout."""
    for seed in UNIFORM_SEEDS:
        rng = np.random.default_rng(seed)
        yield f"uniform seed={seed}", [
            rng.uniform(0.25, 1.0, n) * rng.choice([-1.0, 1.0], n) for n in DIMENSIONS
        ]
    rng = np.random.default_rng(0)
    yield f"normal {NORMAL_PER_DIMENSION}/n seed=0", [
        rng.standard_normal(n) for n in DIMENSIONS for _ in range(NORMAL_PER_DIMENSION)
    ]
    rng = np.random.default_rng(UNIFORM_SEEDS[0])
    yield f"cancelling seed={UNIFORM_SEEDS[0]}", [
        np.r_[(rng.uniform(0.25, 1.0, n) * rng.choice([-1.0, 1.0], n))[:-2], 1e-8, 3e-9] for n in DIMENSIONS
    ]


def mixed_binade_weights(rng, m):
    """``m`` magnitudes in [0.25, 1], each scaled by ``2^-j`` for a random ``j`` in 0..29."""
    return rng.uniform(0.25, 1.0, m) * 2.0 ** -rng.integers(0, 30, m)


def exact_view_values(cube_sections, sections):
    """The values of the exact views on the seeded mixed-binade set, in a fixed order."""
    rng = np.random.default_rng(0)
    for m in range(2, 9):
        for _ in range(4):
            w = mixed_binade_weights(rng, m)
            total = float(np.sum(w))
            for t in (-1.05, -0.6, -0.1, 0.0, 1e-9, 0.3, 0.77, 0.999):
                yield cube_sections.density_at(w, t * total)
                yield cube_sections.cdf_at(w, t * total)
            f = cube_sections.density_closed_form(w)
            yield from f.breakpoints.tolist()
            yield from f.coefficients.ravel().tolist()
    for n in range(4, 10):
        for _ in range(3):
            a = mixed_binade_weights(rng, n) * rng.choice([-1.0, 1.0], n)
            for k in range(n):
                yield sections.facet_section_volume(a, k)
                yield from sections.slab_identity_check(a, k)


def oracle_values(cube_sections):
    """Quadrature of every oracle direction at every shift, then Monte Carlo estimates."""
    units = [cube_sections.as_unit_vector(a) for a in ORACLE_DIRECTIONS]
    for u in units:
        for shift in ORACLE_SHIFTS:
            yield cube_sections.sinc_product_quadrature(u, cosine_shift=shift)
    for u in units[2:4]:
        for seed in MONTE_CARLO_SEEDS:
            est = cube_sections.monte_carlo_section(u, r=0.1, samples=200_000, rng_seed=seed)
            yield from (est.mean, est.std_error, est.slab_halfwidth)


def api_signatures(cube_sections):
    """The signature of each public name, in sorted order of the names."""
    for name in sorted(cube_sections.__all__):
        obj = getattr(cube_sections, name)
        if not callable(obj):
            yield f" = {obj!r}"
            continue
        try:
            yield str(inspect.signature(obj))
        except ValueError:
            # an exception class, whose constructor is built in
            yield "(*args)"


def exact_facet(u, k):
    """Slice of facet ``x_k = 1`` of the unit vector ``u`` and its slab spread, exactly.

    With ``w`` the nonzero ``|u_j|``, ``j != k``, and ``h = |u_k|``: the slice
    is ``2^(n-1) |w| f(h)`` and the spread ``F(h) - F(-h)`` for the density
    ``f`` and CDF ``F`` of ``sum w_j X_j``, both sums over the ``2^m``
    corners ``s`` with parities ``P``:

        f(h) = sum P (h - s)_+^(m-1) / (2^m (m-1)! prod w),
        F(h) - F(-h) = sum P ((h - s)_+^m - (-h - s)_+^m) / (2^m m! prod w).

    The floats are integers over their largest denominator, so both are
    exact Fractions; only the norm ``|w|`` is rounded.
    """
    rest = [abs(x) for j, x in enumerate(u.tolist()) if j != k and x != 0.0]
    ratios = [x.as_integer_ratio() for x in rest + [abs(float(u[k]))]]
    q = max(d for _, d in ratios)
    *w, h = [n * (q // d) for n, d in ratios]
    m = len(w)
    corners = [(-sum(w), 1)]
    for x in w:
        corners += [(s + 2 * x, -p) for s, p in corners]
    density = sum(p * (h - s) ** (m - 1) for s, p in corners if s < h)
    spread = sum(p * (h - s) ** m for s, p in corners if s < h)
    spread -= sum(p * (-h - s) ** m for s, p in corners if s < -h)
    den = 2**m * math.prod(w) * math.factorial(m - 1)
    norm = math.sqrt(sum(Fraction(x) ** 2 for x in rest))
    # the powers carry q^-(m-1) and the product q^-m
    return float(2 ** (u.size - 1) * Fraction(density * q, den)) * norm, Fraction(spread, den * m)


def report_spreads(sections, u):
    """The slab spread of every facet, as ``section_report`` takes them."""
    if hasattr(sections, "_report_terms"):
        return [terms[-1] for terms in sections._report_terms(u)[1]]
    every = getattr(sections, "_all_facet_terms", None)
    if every is not None:
        # a checkout whose report reads its facets apart from its volume
        return [terms[-1] for terms in every(u)]
    # a checkout without the shared facet table: one kernel call per facet
    return [sections._facet_terms(u, k)[-1] for k in range(u.size)]


def relative(value, exact):
    return abs(value - exact) / abs(exact) if exact else abs(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "src",
        help="directory holding the cube_sections package (default: this checkout's src)",
    )
    parser.add_argument(
        "--errors",
        action="store_true",
        help="also print each set's relative volume, facet slice and slab spread errors against exact sums",
    )
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    import cube_sections
    from cube_sections import cli, sections

    if args.errors:
        # read the reference module without writing bytecode next to it
        sys.dont_write_bytecode = True
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
        import reference

    for name, directions in direction_sets():
        start = time.perf_counter()
        digest = hashlib.sha256()
        reports = [sections.section_report(a) for a in directions]
        for report in reports:
            for values in (report.volume, report.facet_section_volumes, report.cone_volumes, report.cone_sum):
                digest.update(np.asarray(values, dtype=float).tobytes())
        elapsed = time.perf_counter() - start
        line = f"{name} reports={len(directions)} sha256={digest.hexdigest()} seconds={elapsed:.2f}"
        if args.errors:
            errors, facet_errors, spread_errors = [], [], []
            for report in reports:
                u = report.direction
                errors.append(relative(report.volume, reference.section_volume(u)))
                spreads = report_spreads(sections, u)
                for k in sorted({0, u.size // 2, u.size - 1}):
                    slice_, spread = exact_facet(u, k)
                    facet_errors.append(relative(report.facet_section_volumes[k], slice_))
                    spread_errors.append(float(relative(Fraction(spreads[k]), spread)))
            line += f" max_rel_err={max(errors):.3g} median_rel_err={statistics.median(errors):.3g}"
            line += f" facet_max_rel_err={max(facet_errors):.3g} spread_max_rel_err={max(spread_errors):.3g}"
        print(line, flush=True)

    name, directions = next(direction_sets())
    start = time.perf_counter()
    digest = hashlib.sha256()
    for a in directions:
        for k in range(a.size):
            values = [sections.facet_section_volume(a, k), *sections.slab_identity_check(a, k)]
            digest.update(np.asarray(values, dtype=float).tobytes())
    elapsed = time.perf_counter() - start
    facets = sum(a.size for a in directions)
    print(f"lone facets {name} facets={facets} sha256={digest.hexdigest()} seconds={elapsed:.2f}", flush=True)

    start = time.perf_counter()
    values = np.array(list(exact_view_values(cube_sections, sections)))
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    elapsed = time.perf_counter() - start
    print(f"exact views mixed-binade seed=0 values={values.size} sha256={digest} seconds={elapsed:.2f}", flush=True)

    start = time.perf_counter()
    values = np.array(list(oracle_values(cube_sections)))
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    elapsed = time.perf_counter() - start
    print(f"oracles values={values.size} sha256={digest} seconds={elapsed:.2f}", flush=True)

    start = time.perf_counter()
    csv = io.StringIO()
    with contextlib.redirect_stdout(csv):
        cli.main(["fig1-grid", "--resolution", str(GRID_RESOLUTION)])
    text = csv.getvalue()
    digest = hashlib.sha256(text.encode()).hexdigest()
    elapsed = time.perf_counter() - start
    print(
        f"fig1-grid resolution={GRID_RESOLUTION} rows={len(text.splitlines()) - 1} sha256={digest} seconds={elapsed:.2f}",
        flush=True,
    )

    signatures = hashlib.sha256("\n".join(api_signatures(cube_sections)).encode()).hexdigest()
    print(f"api signatures_sha256={signatures}", flush=True)


if __name__ == "__main__":
    main()
