"""Digests of the scan's refined vectors, for bitwise comparison of two checkouts.

For each scan configuration (dimension, seed count, rng seed) the seeds of
``search.scan`` are refined with ``search._refine_seeds`` and one SHA-256 is
printed over the ``tobytes()`` of every refined vector, in seed order, with a
fixed marker for a lost seed.  ``max_gap`` is the largest stationarity
gap over the refined vectors, read as ``search._certified_rows`` reads
it: ``search._gap_rows`` of ``criticality._sinc_rows`` at the unit rows.
Beside it are the labels of the classes
``search.scan`` reports for the same configuration, in its order, each as
``k:label`` with ``k`` the diagonal index or ``-`` off the diagonals, and
deterministic operation counts of that scan: ``sweeps``, the Newton
sweeps of every ``search._newton_rows`` call (each evaluates one batch of
trial steps), ``trials``, the trial rows of those batches, and
``corner_calls``, the top-level ``_corner_rows`` calls.  They are counted
by wrappers this script installs, so they need nothing of the package
beyond those private names.  ``seconds`` times the refinement alone,
outside the wrappers.  Run it once per checkout, each with that
checkout's own copy of this script, since the private functions it calls
may take other arguments there, for example

    python ../other/scripts/scan_digest.py --src ../other/src
    python scripts/scan_digest.py --src src

and compare the lines: equal digests mean bitwise equal refinements, and
equal labels an unchanged classification.
"""

import argparse
import contextlib
import functools
import hashlib
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# (dimension, seed_count, rng_seed)
CONFIGS = ((3, 500, 0), (4, 200, 1), (4, 200, 7), (4, 2000, 0), (5, 100, 0))


@contextlib.contextmanager
def counting(search, criticality):
    """Count Newton calls and rows, residual batches and rows, and kernel calls.

    ``_residual_rows`` runs once per ``_newton_rows`` call for the starting
    residuals and once per sweep for its trial steps, so sweeps and trial
    rows are its counts less those of ``_newton_rows``.  Calls that the
    kernel makes to itself, to split a batch, are not counted.
    """
    counts = Counter()
    depth = [0]

    def rows(name, fn):
        @functools.wraps(fn)
        def wrapped(x, *args, **kwargs):
            counts[name] += 1
            counts[name + "_rows"] += len(x)
            return fn(x, *args, **kwargs)

        return wrapped

    def kernel(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts["corner"] += depth[0] == 0
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapped

    saved = [(m, name, getattr(m, name)) for m, name in (
        (search, "_newton_rows"), (search, "_residual_rows"),
        (search, "_corner_rows"), (criticality, "_corner_rows"),
    )]
    search._newton_rows = rows("newton", search._newton_rows)
    search._residual_rows = rows("residual", search._residual_rows)
    corner = kernel(criticality._corner_rows)
    search._corner_rows = criticality._corner_rows = corner
    try:
        yield counts
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "src",
        help="directory holding the cube_sections package (default: this checkout's src)",
    )
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from cube_sections import criticality, search
    from cube_sections.weights import _unit_vector

    for dimension, seed_count, rng_seed in CONFIGS:
        config = search.ScanConfig(dimension=dimension, seed_count=seed_count, rng_seed=rng_seed)
        start = time.perf_counter()
        refined = search._refine_seeds(search._scan_seeds(config))
        elapsed = time.perf_counter() - start
        digest = hashlib.sha256()
        for vec in refined:
            digest.update(b"lost" if vec is None else vec.tobytes())
        lost = sum(vec is None for vec in refined)
        unit = np.array([_unit_vector(vec) for vec in refined if vec is not None])
        max_gap = float(search._gap_rows(unit, criticality._sinc_rows(unit).grad).max()) if unit.size else 0.0
        with counting(search, criticality) as counts:
            points = search.scan(config)
        labels = ",".join(
            f"{'-' if p.diagonal_k is None else p.diagonal_k}:{p.classification}" for p in points
        )
        sweeps = counts["residual"] - counts["newton"]
        trials = counts["residual_rows"] - counts["newton_rows"]
        print(
            f"n={dimension} seeds={seed_count} rng_seed={rng_seed} "
            f"sha256={digest.hexdigest()} lost={lost} max_gap={max_gap:.2e} labels={labels} "
            f"sweeps={sweeps} trials={trials} corner_calls={counts['corner']} seconds={elapsed:.2f}",
            flush=True,
        )


if __name__ == "__main__":
    main()
