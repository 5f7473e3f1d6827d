"""Digests of ``section_report`` values, for bitwise comparison of two checkouts.

For each set of directions one SHA-256 is printed over the ``tobytes()`` of
every report's ``volume``, ``facet_section_volumes``, ``cone_volumes`` and
``cone_sum``, in direction order.  The sets are the ``report-highdim``
benchmark directions (coordinate magnitudes in [0.25, 1] with random signs,
n = 10..18) for rng seeds 1, 7 and 11, and 15 standard-normal directions per
n = 10..18.  A last line gives the SHA-256 of the CSV that
``cli.main(["fig1-grid", "--resolution", "91"])`` prints, the Figure 1 grid
of 16,471 three-dimensional central volumes.  Run it once per checkout, for
example

    python scripts/report_digest.py --src ../other/src
    python scripts/report_digest.py --src src

and compare the lines: equal digests mean bitwise equal reports.  With
``--errors`` each set's line also gives the largest and the median relative
error of the reports' ``volume`` against ``section_volume`` of
``benchmarks/reference.py``, an exact integer sum that shares no code with
the package; at n = 18 it takes about a second per direction.
"""

import argparse
import contextlib
import hashlib
import io
import statistics
import sys
import time
from pathlib import Path

import numpy as np

DIMENSIONS = range(10, 19)
UNIFORM_SEEDS = (1, 7, 11)
NORMAL_PER_DIMENSION = 15
GRID_RESOLUTION = 91


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
        help="also print each set's max and median relative volume error against the exact reference",
    )
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
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
            errors = []
            for report in reports:
                exact = reference.section_volume(report.direction)
                errors.append(abs(report.volume - exact) / exact)
            line += f" max_rel_err={max(errors):.3g} median_rel_err={statistics.median(errors):.3g}"
        print(line, flush=True)

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


if __name__ == "__main__":
    main()
