"""Benchmark of the cube-sections package, end to end and per layer.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload thm3-n4 --seed 1 --seconds 20 --trace 0

Runs whole rounds of one workload until ``--seconds`` have passed, checks
the first round's outputs against independent references and that every
later round repeated them, and prints as its last line one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
Details go to ``benchmarks/out/``.  Exits 2 without a result when the
package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one compute thread: BLAS and the Monte Carlo oracle are pinned before
# numpy is first imported, here and in the set-up subprocesses
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CUBE_SECTIONS_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 5

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))

_SETUP_CODE = """
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import numpy as np
import cube_sections
for m in {sizes!r}:
    cube_sections.density_at(np.ones(m), 0.0)
print(time.perf_counter() - t0)
"""


def measure_setup(sizes) -> float:
    """Import and cache warm-up in a fresh interpreter, timed from inside it."""
    code = _SETUP_CODE.format(src=str(SRC), sizes=tuple(sizes))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.split()[-1])


def warm(workload):
    import numpy as np
    from cube_sections import density

    for m in workload.kernel_sizes:
        density.density_at(np.ones(m), 0.0)


def run_rounds(workload, seconds: float, first=None):
    """Whole rounds until ``seconds`` pass; returns (times, first output, all identical)."""
    times, identical = [], True
    begin = time.perf_counter()
    while not times or time.perf_counter() - begin < seconds:
        t0 = time.perf_counter()
        output = workload.run_round()
        times.append(time.perf_counter() - t0)
        if first is None:
            first = output
        elif not workload.same(first, output):
            identical = False
    return times, first, identical


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "cube_sections" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import cube_sections
    import workloads

    if Path(cube_sections.__file__).resolve().parent != SRC / "cube_sections":
        print(f"error: imported cube_sections from {cube_sections.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, **versions()}
    if args.trace:
        import tracing

        warm(workload)
        plain, first, identical = run_rounds(workload, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _, traced_identical = run_rounds(workload, args.seconds / 2, first)
        finally:
            tracer.uninstall()
        identical = identical and traced_identical
        rounds = len(plain) + len(traced)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        values = tracer.metrics(len(traced))
        overhead = statistics.median(traced) - statistics.median(plain)
        detail.update(
            plain_round_s=plain,
            traced_round_s=traced,
            trace_overhead_s=overhead,
            functions=tracer.function_summary(),
        )
        tracer.save_spans(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
        print(f"tracing overhead: {overhead:.6f} s per round ({100 * overhead / statistics.median(plain):.1f}%)")
    else:
        setup = [measure_setup(workload.kernel_sizes) for _ in range(SETUP_REPEATS)]
        warm(workload)
        times, first, identical = run_rounds(workload, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds = len(times)
        units = dict(END_TO_END)
        values = {"setup_s": statistics.median(setup), "run_s": statistics.median(times), "peak_rss_mb": peak_mb}
        detail.update(setup_s=setup, round_s=times)

    faults, problems = workload.check(first)
    if not identical:
        problems.append("rounds of the same inputs produced different outputs")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": rounds * workload.operations(first),
        "failed": rounds * faults,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    detail.update(result=result, problems=problems)
    suffix = "-trace" if args.trace else ""
    (OUT / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
