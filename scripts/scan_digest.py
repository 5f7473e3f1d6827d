"""Digests of the scan's refined vectors, for bitwise comparison of two checkouts.

For each scan configuration (dimension, seed count, rng seed) the seeds of
``search.scan`` are refined with ``search._refine_seeds`` and one SHA-256 is
printed over the ``tobytes()`` of every refined vector, in seed order, with a
fixed marker for a lost seed.  Beside it are the labels of the classes
``search.scan`` reports for the same configuration, in its order, each as
``k:label`` with ``k`` the diagonal index or ``-`` off the diagonals.  Run
it once per checkout, each with that checkout's own copy of this script,
since the private functions it calls may take other arguments there, for
example

    python ../other/scripts/scan_digest.py --src ../other/src
    python scripts/scan_digest.py --src src

and compare the lines: equal digests mean bitwise equal refinements, and
equal labels an unchanged classification.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

# (dimension, seed_count, rng_seed)
CONFIGS = ((3, 500, 0), (4, 200, 1), (4, 200, 7), (4, 2000, 0), (5, 100, 0))


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
    from cube_sections import search

    for dimension, seed_count, rng_seed in CONFIGS:
        config = search.ScanConfig(dimension=dimension, seed_count=seed_count, rng_seed=rng_seed)
        start = time.perf_counter()
        refined = search._refine_seeds(search._scan_seeds(config))
        elapsed = time.perf_counter() - start
        digest = hashlib.sha256()
        for vec in refined:
            digest.update(b"lost" if vec is None else vec.tobytes())
        lost = sum(vec is None for vec in refined)
        labels = ",".join(
            f"{'-' if p.diagonal_k is None else p.diagonal_k}:{p.classification}"
            for p in search.scan(config)
        )
        print(
            f"n={dimension} seeds={seed_count} rng_seed={rng_seed} "
            f"sha256={digest.hexdigest()} lost={lost} labels={labels} seconds={elapsed:.2f}",
            flush=True,
        )


if __name__ == "__main__":
    main()
