"""Paired end-to-end benchmark runs of two checkouts, for before/after claims.

Runs ``benchmarks/run.py --trace 0`` in each of the two checkout roots,
``--pairs`` times, alternating which side runs first so that a drift of the
machine's speed falls on both sides alike.  Prints one JSON object, the
``end_to_end`` block of a ``BENCH_*.json`` entry: per metric the quartiles
of each side (``statistics.quantiles``, inclusive method) and
``change_wins``, the number of pairs in which the change is better in the
direction ``BENCHMARK.json`` declares, and ``runs``, every run's value of
each side in run order.  For example

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
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

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
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in results.items()}
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(values["parent"], values["change"]))
        block[name] = {
            "parent": quartiles(values["parent"]),
            "change": quartiles(values["change"]),
            "change_wins": wins,
            "runs": values,
        }
    print(json.dumps(block, indent=2))


if __name__ == "__main__":
    main()
