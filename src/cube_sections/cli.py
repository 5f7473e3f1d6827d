"""Command-line interface for cube section computations.

Subcommands: volume, check, scan, classify, diagonal-table, fig1-grid,
density, oracle, solve-systems, verify.  Reports are emitted as JSON
(default), pretty text, or CSV with '.' decimal point, ',' separator, a
header row and 17 significant digits.  Exit codes: 0 success, 1
verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .casework import (
    INTERIOR_BOUND_TRIPLE,
    Case,
    n3_cyclic_sum,
    n3_identity_check,
    n4_case_balance,
    n4_case_dispatch,
    pairwise_balance,
    solve_n4_system_triple,
    solve_n4_system_unequal,
)
from .criticality import DEFAULT_CRITICALITY_TOL, criticality_residuals
from .density import cdf_at, density_at, density_closed_form
from .oracles import monte_carlo_section, sinc_product_quadrature
from .search import ScanConfig, classify_critical_point, scan
from .sections import (
    central_volumes,
    diagonal_direction,
    diagonal_section_volume,
    normalized_section,
    section_report,
)
from .weights import InvalidInputError, as_unit_vector

__all__ = ["main", "build_parser"]

_EXACT_RE = re.compile(r"^(\d+)-diag:(\d+)$")


def _parse_direction(text: str) -> np.ndarray:
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"non-numeric coordinate in {text!r}") from exc
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise argparse.ArgumentTypeError("coordinates must be finite")
    if not np.any(arr):
        raise argparse.ArgumentTypeError("direction cannot be all zeros")
    return arr


def _parse_exact(text: str) -> np.ndarray:
    match = _EXACT_RE.match(text)
    if match is None:
        raise argparse.ArgumentTypeError(
            f"expected 'k-diag:n' (e.g. 2-diag:5), got {text!r}"
        )
    k, n = int(match.group(1)), int(match.group(2))
    if not 1 <= k <= n:
        raise argparse.ArgumentTypeError("need 1 <= k <= n in 'k-diag:n'")
    return diagonal_direction(k, n)


def _add_direction_args(sub: argparse.ArgumentParser):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "-a",
        "--direction",
        type=_parse_direction,
        help="comma-separated direction coordinates, e.g. 1,1,2,2",
    )
    group.add_argument(
        "--exact",
        type=_parse_exact,
        dest="exact",
        help="k-diagonal shorthand 'k-diag:n', exact in floating point",
    )


def _direction_of(args) -> np.ndarray:
    return args.direction if args.direction is not None else args.exact


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return _g17(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return ";".join(_g17(float(v)) for v in value)
    return str(value)


def _emit_csv(header: list[str], rows):
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(_csv_cell(v) for v in row))
    print("\n".join(out))


def _emit_pretty(data: dict):
    width = max(len(k) for k in data)
    for key, value in data.items():
        if isinstance(value, float):
            text = _g17(value)
        elif isinstance(value, (list, tuple)):
            text = json.dumps(value)
        else:
            text = str(value)
        print(f"{key.ljust(width)}  {text}")


def _emit_report(data: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(data, indent=2))
    elif fmt == "pretty":
        _emit_pretty(data)
    else:
        _emit_csv(["field", "value"], [(k, _csv_cell(v)) for k, v in data.items()])


def cmd_volume(args) -> int:
    report = section_report(_direction_of(args))
    _emit_report(report.to_dict(), args.format)
    return 0


def cmd_check(args) -> int:
    report = criticality_residuals(_direction_of(args), tol=args.tol)
    _emit_report(report.to_dict(), args.format)
    return 0 if report.verdict != "not-critical" else 1


def cmd_classify(args) -> int:
    unit = as_unit_vector(_direction_of(args))
    report = criticality_residuals(unit)
    data = report.to_dict()
    data["classification"] = (
        classify_critical_point(unit)
        if report.verdict != "not-critical"
        else "not-critical"
    )
    _emit_report(data, args.format)
    return 0 if data["classification"] != "not-critical" else 1


def cmd_scan(args) -> int:
    config = ScanConfig(dimension=args.dim, seed_count=args.seeds, rng_seed=args.rng)
    points = scan(config)
    recheck = all(
        criticality_residuals(p.canonical, tol=1e-8).verdict != "not-critical"
        for p in points
    )
    if args.format == "csv":
        _emit_csv(
            ["direction", "sigma", "volume", "classification", "basin_count", "diagonal_k"],
            [
                (
                    p.canonical,
                    p.sigma,
                    p.volume,
                    p.classification,
                    p.basin_count,
                    "" if p.diagonal_k is None else p.diagonal_k,
                )
                for p in points
            ],
        )
    elif args.format == "pretty":
        for p in points:
            _emit_pretty(p.to_dict())
            print()
    else:
        print(json.dumps([p.to_dict() for p in points], indent=2))
    if not recheck:
        print("residual re-check failed", file=sys.stderr)
        return 1
    return 0


def cmd_diagonal_table(args) -> int:
    if args.dim_max < 3:
        print("--dim-max must be at least 3", file=sys.stderr)
        return 2
    rows = []
    for n in range(1, args.dim_max + 1):
        for k in range(1, n + 1):
            rows.append((n, k, diagonal_section_volume(n, k) / 2.0 ** (n - 1)))
    _emit_csv(["n", "k", "normalized_volume"], rows)
    return 0


def cmd_fig1_grid(args) -> int:
    if args.resolution < 2:
        print("--resolution must be at least 2", file=sys.stderr)
        return 2
    alphas = np.linspace(0.0, math.pi / 2.0, args.resolution).tolist()
    betas = np.linspace(0.0, math.pi, 2 * args.resolution - 1).tolist()
    # the cells _emit_csv would write, each angle formatted once
    beta_cells = [_g17(beta) for beta in betas]
    lines = ["alpha,beta,volume"]
    # one batch per alpha row: a single batch would hold the whole grid's
    # directions at once
    for alpha in alphas:
        sa, ca = math.sin(alpha), math.cos(alpha)
        directions = [(sa, ca * math.sin(beta), ca * math.cos(beta)) for beta in betas]
        volumes = central_volumes(directions).tolist()
        alpha_cell = _g17(alpha)
        lines.extend(f"{alpha_cell},{b},{_g17(v)}" for b, v in zip(beta_cells, volumes))
    print("\n".join(lines))
    return 0


def cmd_density(args) -> int:
    weights = _direction_of(args)
    if args.at is not None:
        data = {
            "weights": [float(v) for v in weights],
            "r": args.at,
            "density": density_at(weights, args.at),
            "cdf": cdf_at(weights, args.at),
        }
    else:
        data = {"weights": [float(v) for v in weights]}
        data.update(density_closed_form(weights).to_dict())
    _emit_report(data, args.format)
    return 0


def cmd_oracle(args) -> int:
    unit = as_unit_vector(_direction_of(args))
    n = unit.size
    if args.method == "quad":
        integral = sinc_product_quadrature(unit, cosine_shift=args.r)
        estimate = 2.0**n * integral / (2.0 * math.pi)
        data = {
            "method": "quad",
            "direction": [float(v) for v in unit],
            "r": args.r,
            "estimate": estimate,
        }
    else:
        result = monte_carlo_section(
            unit, r=args.r, samples=args.samples, rng_seed=args.rng
        )
        data = {"method": "mc", "direction": [float(v) for v in unit], "r": args.r}
        data["estimate"] = result.mean
        data.update(result.to_dict())
    _emit_report(data, args.format)
    return 0


def cmd_solve_systems(args) -> int:
    unequal = solve_n4_system_unequal()
    triple = solve_n4_system_triple()
    data = {
        "unequal": [[float(v) for v in root] for root in unequal],
        "triple": [root.to_dict() for root in triple],
        "interior_bound": INTERIOR_BOUND_TRIPLE,
    }
    _emit_report(data, args.format)
    return 0


def _verify_lines(checks: list[tuple[str, bool]]) -> int:
    ok = all(flag for _, flag in checks)
    for label, flag in checks:
        print(f"{'PASS' if flag else 'FAIL'}: {label}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _verify_thm2() -> int:
    rng = np.random.default_rng(0)
    checks = []

    worst = 0.0
    for _ in range(50):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        worst = max(worst, abs(n3_identity_check(v)))
    checks.append(("sphere identity for squared differences <= 1e-12", worst <= 1e-12))

    worst = 0.0
    for _ in range(50):
        v = np.abs(rng.standard_normal(3))
        v /= np.linalg.norm(v)
        total, closed = n3_cyclic_sum(v)
        worst = max(worst, abs(total - closed))
    checks.append(("cyclic balance sum matches closed form <= 1e-12", worst <= 1e-12))

    diag = diagonal_direction(3, 3)
    balanced = abs(pairwise_balance(diag, 0, 1).residual) <= 1e-12
    report = criticality_residuals(diag)
    checks.append(
        ("3-diagonal balanced and critical", balanced and report.verdict == "critical")
    )

    nontrivial = 0.0
    for _ in range(20):
        v = np.abs(rng.standard_normal(3)) + 0.05
        v /= np.linalg.norm(v)
        if np.max(np.abs(v - diag)) < 0.05 or 2.0 * np.max(v) >= np.sum(v) - 0.05:
            continue
        nontrivial = max(
            nontrivial,
            max(abs(pairwise_balance(v, i, j).residual) for i, j in [(0, 1), (0, 2), (1, 2)]),
        )
    checks.append(("generic directions violate the balance", nontrivial >= 1e-6))

    points = scan(ScanConfig(dimension=3, seed_count=200, rng_seed=0))
    kinds = sorted(p.diagonal_k for p in points)
    labels = {p.diagonal_k: p.classification for p in points}
    checks.append(
        (
            "scan finds exactly the 1-, 2-, 3-diagonals",
            kinds == [1, 2, 3] and len(points) == 3,
        )
    )
    checks.append(
        (
            "classifications: global-min, global-max, saddle",
            labels.get(1) == "global-min"
            and labels.get(2) == "global-max"
            and labels.get(3) == "saddle",
        )
    )
    return _verify_lines(checks)


def _verify_thm3() -> int:
    checks = []

    unequal = solve_n4_system_unequal()
    target = np.array([1.0, 2.0, 2.0]) / math.sqrt(10.0)
    checks.append(
        (
            "unequal-pair system has the single root (1,2,2)/sqrt(10)",
            len(unequal) == 1 and float(np.max(np.abs(unequal[0] - target))) <= 1e-10,
        )
    )

    triple = solve_n4_system_triple()
    admissible = [r for r in triple if r.admissible]
    rejected = [r for r in triple if not r.admissible]
    checks.append(
        (
            "triple-equal system: (0.5, 0.5) admissible",
            len(admissible) == 1
            and abs(admissible[0].a1 - 0.5) <= 1e-10
            and abs(admissible[0].a4 - 0.5) <= 1e-10,
        )
    )
    checks.append(("triple-equal system: one rejected root", len(rejected) == 1))
    for root in rejected:
        print(
            f"rejected triple root: a1={root.a1:.6f}, a4={root.a4:.6f} "
            f"(below interior bound {INTERIOR_BOUND_TRIPLE:.6f})"
        )

    special = np.array([1.0, 1.0, 2.0, 2.0]) / math.sqrt(10.0)
    report = criticality_residuals(special)
    checks.append(
        (
            "(1,1,2,2)/sqrt(10) is critical",
            report.verdict == "critical" and report.max_residual <= 1e-10,
        )
    )

    b = np.array([1.0, 2.0, 1.0, 2.0]) / math.sqrt(10.0)
    cases = n4_case_dispatch(b)
    balances = [n4_case_balance(b, case) for case in cases]
    checks.append(
        (
            "case balances agree at the shared boundary point",
            len(cases) == len(Case) and max(abs(v) for v in balances) <= 1e-12,
        )
    )

    points = scan(ScanConfig(dimension=4, seed_count=400, rng_seed=0))
    diag_ks = sorted(p.diagonal_k for p in points if p.diagonal_k is not None)
    extra = [p for p in points if p.diagonal_k is None]
    checks.append(
        (
            "scan finds the 4 diagonals plus one extra class",
            diag_ks == [1, 2, 3, 4] and len(extra) == 1 and len(points) == 5,
        )
    )
    if len(extra) == 1:
        close = float(np.max(np.abs(extra[0].canonical - special)))
        checks.append(("extra class is (1,1,2,2)/sqrt(10)", close <= 1e-7))
        checks.append(("extra class is a saddle", extra[0].classification == "saddle"))
    labels = {p.diagonal_k: p.classification for p in points}
    sigma4 = normalized_section(diagonal_direction(4, 4))
    checks.append(
        (
            "4-diagonal is a local, not global, maximum",
            labels.get(4) == "local-max"
            and sigma4 < math.sqrt(2.0) * math.pi - 1e-3,
        )
    )
    return _verify_lines(checks)


def cmd_verify(args) -> int:
    if args.thm == 2:
        return _verify_thm2()
    return _verify_thm3()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cube-sections",
        description="Exact central hyperplane sections of the cube [-1,1]^n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("volume", help="section volume report for a direction")
    _add_direction_args(p)
    p.add_argument("--format", choices=["json", "csv", "pretty"], default="json")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("check", help="criticality residuals for a direction")
    _add_direction_args(p)
    p.add_argument("--tol", type=float, default=DEFAULT_CRITICALITY_TOL)
    p.add_argument("--format", choices=["json", "csv", "pretty"], default="json")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="classify a critical direction")
    _add_direction_args(p)
    p.add_argument("--format", choices=["json", "csv", "pretty"], default="json")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scan", help="multistart search for critical directions")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seeds", type=int, default=500)
    p.add_argument("--rng", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv", "pretty"], default="json")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("diagonal-table", help="normalized k-diagonal volumes as CSV")
    p.add_argument("--dim-max", type=int, default=10)
    p.set_defaults(func=cmd_diagonal_table)

    p = sub.add_parser(
        "fig1-grid", help="CSV surface of 3-d section volumes over two angles"
    )
    p.add_argument("--resolution", type=int, default=91)
    p.set_defaults(func=cmd_fig1_grid)

    p = sub.add_parser("density", help="piecewise-polynomial density of a weighted sum")
    _add_direction_args(p)
    p.add_argument("--at", type=float, default=None, help="evaluate at a point")
    p.add_argument("--format", choices=["json", "pretty"], default="json")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("oracle", help="independent estimates of section volumes")
    _add_direction_args(p)
    p.add_argument("--method", choices=["quad", "mc"], required=True)
    p.add_argument("-r", type=float, default=0.0, help="section offset")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--rng", type=int, default=0)
    p.add_argument("--format", choices=["json", "pretty"], default="json")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("solve-systems", help="roots of the 4-d critical systems")
    p.add_argument("--format", choices=["json", "pretty"], default="json")
    p.set_defaults(func=cmd_solve_systems)

    p = sub.add_parser("verify", help="end-to-end classification pipelines")
    p.add_argument("--thm", type=int, choices=[2, 3], required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
