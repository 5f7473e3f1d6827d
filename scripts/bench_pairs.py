"""Paired end-to-end benchmark runs of two checkouts, for before/after claims.

Runs ``benchmarks/run.py --trace 0`` in each of the two checkout roots,
``--pairs`` times, alternating which side runs first so that a drift of the
machine's speed falls on both sides alike.  Prints one JSON object, the
``end_to_end`` block of a ``BENCH_*.json`` entry: per metric the quartiles
of each side (``statistics.quantiles``, inclusive method) and
``change_wins``, the number of pairs in which the change is better in the
direction ``BENCHMARK.json`` declares, ``runs``, every run's value of
each side in run order, and ``verdict``, the first that holds of:

* ``gain``: the change wins at least nine tenths of the pairs (ties count
  for neither side), and its median is better than the parent's by more
  than the parent's quartile distance;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's relative ``bound`` in ``BENCHMARK.json``;
* ``unresolved``: the parent's quartile distance exceeds that bound times
  its median, so the runs spread too widely to tell, unless every run of
  the change is better than every run of the parent;
* ``no regression``.

For example

    python scripts/bench_pairs.py ../parent . --workload grid-n3 --seed 1 --pairs 10

Each run writes its details to ``benchmarks/out/`` of its own checkout.
Before the first pair it deletes ``src/cube_sections/__pycache__`` in both
checkouts, so that neither side starts from compiled bytecode the other
lacks: ``setup_s`` times fresh interpreters importing the package.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run in ``tree``."""
    done = subprocess.run(
        [
            sys.executable,
            "benchmarks/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def verdict(parent: list[float], change: list[float], wins: int, sign: float, bound: float) -> str:
    """The verdict on one metric; ``sign`` is 1 where lower is better and -1 where higher is."""
    # signed so that lower is better
    parent, change = [sign * x for x in parent], [sign * x for x in change]
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gap = median - statistics.median(change)
    if wins >= 0.9 * len(parent) and gap > q3 - q1:
        return "gain"
    if -gap > bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and max(change) >= min(parent):
        return "unresolved"
    return "no regression"


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0, help="seconds of rounds per run")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    for side, tree in trees.items():
        cache = tree / "src" / "cube_sections" / "__pycache__"
        shutil.rmtree(cache, ignore_errors=True)
        print(f"deleted {cache} ({side}) before the first pair", file=sys.stderr)

    results = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run_once(trees[side], args.workload, args.seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    runs = results["parent"] + results["change"]
    block = {
        "pairs": args.pairs,
        "correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    for name, metric in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in results.items()}
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(values["parent"], values["change"]))
        block[name] = {
            "parent": quartiles(values["parent"]),
            "change": quartiles(values["change"]),
            "change_wins": wins,
            "runs": values,
            "verdict": verdict(values["parent"], values["change"], wins, sign, metric["bound"]),
        }
    print(json.dumps(block, indent=2))


if __name__ == "__main__":
    main()
