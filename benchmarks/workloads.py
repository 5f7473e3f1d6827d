"""The benchmark's workloads: inputs from a seed, one round, output checks.

A round is the workload's whole computation; every round of a run repeats
the same operations on the same inputs.  ``run_round`` calls the package
only through module attributes (``search.scan``, ``cli.main``, ...), so
the traced run's wrappers see each call.  ``check`` runs outside the timed
region and compares against ``reference``, which shares no code with the
kernel, or against properties every correct answer has.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np

import reference
from cube_sections import casework, cli, oracles, search, sections


class Workload:
    name = ""
    # nonzero-weight counts whose density tables the workload uses; set-up warms them
    kernel_sizes: tuple[int, ...] = ()

    def run_round(self):
        raise NotImplementedError

    def operations(self, output) -> int:
        """Checked outputs one round produces."""
        raise NotImplementedError

    def check(self, output) -> tuple[int, list[str]]:
        """``(known_faults, problems)``: operations that fail on a known
        fault of the package, and every other deviation found."""
        raise NotImplementedError

    def same(self, first, other) -> bool:
        """Whether two rounds produced identical outputs."""
        return first == other


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


class Thm3N4(Workload):
    """Theorem 3: the two n=4 polynomial systems and the classified scan."""

    name = "thm3-n4"
    kernel_sizes = (2, 3, 4)
    SCAN_SEEDS = 200
    CLASS_TOL = 1e-7
    VALUE_TOL = 1e-11
    ROOT_TOL = 1e-9

    def __init__(self, seed: int):
        self.seed = seed

    def run_round(self):
        return {
            "unequal": casework.solve_n4_system_unequal(),
            "triple": casework.solve_n4_system_triple(),
            "points": search.scan(
                search.ScanConfig(dimension=4, seed_count=self.SCAN_SEEDS, rng_seed=self.seed)
            ),
        }

    def operations(self, output) -> int:
        return 2 + len(output["points"])

    def same(self, first, other) -> bool:
        def key(out):
            return (
                [tuple(r) for r in out["unequal"]],
                [(r.a1, r.a4, r.admissible) for r in out["triple"]],
                [(tuple(p.canonical), p.sigma, p.volume, p.classification, p.basin_count, p.diagonal_k) for p in out["points"]],
            )

        return key(first) == key(other)

    @staticmethod
    def expected_classes() -> dict:
        """Canonical vector, sigma, label and diagonal index of each class.

        The four face diagonals, ascending (zeros then ``1/sqrt(k)``), and
        ``(1, 1, 2, 2)/sqrt(10)``; labels as Theorem 3 states them.
        """
        labels = {1: "global-min", 2: "global-max", 3: "saddle", 4: "local-max"}
        classes = {}
        for k, label in labels.items():
            vec = np.array([0.0] * (4 - k) + [1.0 / math.sqrt(k)] * k)
            classes[f"{k}-diagonal"] = (vec, reference.diagonal_sigma(k), label, k)
        special = [1.0, 1.0, 2.0, 2.0]
        sigma = math.sqrt(10.0) * 2.0 * math.pi * float(reference.density_at_zero(special))
        classes["(1,1,2,2)"] = (np.array(special) / math.sqrt(10.0), sigma, "saddle", None)
        return classes

    def check(self, output):
        problems = []
        unequal = sorted(tuple(float(v) for v in r) for r in output["unequal"])
        problems += _compare_roots("unequal-pair system", unequal, reference.unequal_system_roots(), self.ROOT_TOL)
        triple = sorted(output["triple"], key=lambda r: (r.a1, r.a4))
        problems += _compare_roots(
            "triple-equal system", [(r.a1, r.a4) for r in triple], reference.triple_system_roots(), self.ROOT_TOL
        )
        bound = 1.0 / math.sqrt(12.0)
        for r in triple:
            if r.admissible != (r.a1 > bound):
                problems.append(f"triple root a1={r.a1!r}: admissible={r.admissible} against bound 1/sqrt(12)")

        expected = self.expected_classes()
        if abs(expected["(1,1,2,2)"][1] - 5.0 * math.sqrt(10.0) * math.pi / 12.0) > 1e-14:
            problems.append("reference sigma of (1,1,2,2) differs from 5 sqrt(10) pi / 12")
        matched = {}
        points = output["points"]
        for p in points:
            hits = [key for key, (vec, *_) in expected.items() if np.max(np.abs(p.canonical - vec)) <= self.CLASS_TOL]
            if len(hits) != 1:
                problems.append(f"class {list(p.canonical)} matches {hits or 'no expected class'}")
                continue
            key = hits[0]
            if key in matched:
                problems.append(f"class {key} reported twice")
            matched[key] = p
            _, sigma, label, diag = expected[key]
            if p.classification != label:
                problems.append(f"class {key} labelled {p.classification}, expected {label}")
            if _rel(p.sigma, sigma) > self.VALUE_TOL:
                problems.append(f"class {key}: sigma {p.sigma!r}, reference {sigma!r}")
            if _rel(p.volume, sigma * 8.0 / math.pi) > self.VALUE_TOL:
                problems.append(f"class {key}: volume {p.volume!r}, reference {sigma * 8.0 / math.pi!r}")
            if p.diagonal_k != diag:
                problems.append(f"class {key}: diagonal_k {p.diagonal_k}, expected {diag}")
            if p.basin_count < 1:
                problems.append(f"class {key}: basin count {p.basin_count}")
        for key in expected.keys() - matched.keys():
            problems.append(f"class {key} not found")
        if sum(p.basin_count for p in points) > self.SCAN_SEEDS + 4:
            problems.append("basin counts exceed the number of seeds")
        return 0, problems


def _compare_roots(label, got, ref, tol) -> list[str]:
    if len(got) != len(ref):
        return [f"{label}: {len(got)} positive roots {got}, reference {ref}"]
    return [
        f"{label}: root {g} differs from reference {r}"
        for g, r in zip(got, ref)
        if max(abs(a - b) for a, b in zip(g, r)) > tol
    ]


class GridN3(Workload):
    """``fig1-grid``: the Figure 1 surface of 3-d section volumes, as CSV."""

    name = "grid-n3"
    kernel_sizes = (2, 3)
    RESOLUTION = 91
    QUADRATURE_ROWS = 48
    VOLUME_TOL = 1e-10
    QUADRATURE_TOL = 1e-9

    def __init__(self, seed: int):
        self.seed = seed

    def run_round(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["fig1-grid", "--resolution", str(self.RESOLUTION)])
        return code, buf.getvalue()

    def operations(self, output) -> int:
        r = self.RESOLUTION
        return r * (2 * r - 1)

    def check(self, output):
        code, text = output
        r = self.RESOLUTION
        lines = text.splitlines()
        if code != 0 or not lines or lines[0] != "alpha,beta,volume":
            return 0, [f"exit code {code}, header {lines[:1]}"]
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        nb = 2 * r - 1
        if rows.shape != (r * nb, 3):
            return 0, [f"{rows.shape[0]} rows of {rows.shape[1]} fields, expected {r * nb} of 3"]
        problems = []
        alphas = np.array([i * (math.pi / 2.0) / (r - 1) for i in range(r)])
        betas = np.array([j * math.pi / (nb - 1) for j in range(nb)])
        grid = rows.reshape(r, nb, 3)
        if np.max(np.abs(grid[:, :, 0] - alphas[:, None])) > 1e-14 or np.max(np.abs(grid[:, :, 1] - betas[None, :])) > 1e-14:
            problems.append("rows do not enumerate the (alpha, beta) grid")
        vol = grid[:, :, 2]
        low, high = 4.0, 4.0 * math.sqrt(2.0)
        if np.min(vol) < low * (1 - 1e-12) or np.max(vol) > high * (1 + 1e-12):
            problems.append(f"volumes leave [4, 4 sqrt 2]: min {np.min(vol)!r}, max {np.max(vol)!r}")
        if abs(np.min(vol) - low) > 1e-12 * low:
            problems.append(f"minimum volume {np.min(vol)!r} is not 4")
        mirror = np.max(np.abs(vol - vol[:, ::-1]) / vol)
        if mirror > self.VOLUME_TOL:
            problems.append(f"V(alpha, beta) and V(alpha, pi - beta) differ by {mirror:.3g} relative")
        directions = [_grid_direction(a, b) for a, b, _ in rows.tolist()]
        for (a, b, v), u in zip(rows.tolist(), directions):
            ref = reference.section_volume(u)
            if _rel(v, ref) > self.VOLUME_TOL:
                problems.append(f"row alpha={a!r} beta={b!r}: volume {v!r}, exact {ref!r}")
        # the quadrature oracle needs two nonzero weights
        usable = [i for i, u in enumerate(directions) if np.count_nonzero(np.abs(u) > 1e-12) >= 2]
        rng = np.random.default_rng(self.seed)
        for i in rng.choice(usable, size=self.QUADRATURE_ROWS, replace=False):
            unit = directions[i] / np.linalg.norm(directions[i])
            quad = 8.0 * oracles.sinc_product_quadrature(unit) / (2.0 * math.pi)
            volume = float(rows[i, 2])
            if _rel(volume, quad) > self.QUADRATURE_TOL:
                problems.append(f"row {i}: volume {volume!r}, quadrature {quad!r}")
        return 0, problems


def _grid_direction(alpha: float, beta: float) -> np.ndarray:
    sa, ca = math.sin(alpha), math.cos(alpha)
    return np.array([sa, ca * math.sin(beta), ca * math.cos(beta)])


# two weights near 1e-8 beside ordinary ones: the alternating corner sum
# cancels and the reported volume is wrong by 2% to 270% (a known fault of
# density.density_at), so these reports count as failed operations
NEAR_DEGENERATE = (
    (1e-8, 1e-8, 0.6, 0.8),
    (1e-8, 3e-8, 0.5, 0.6, 0.7),
    (1e-8, 2e-8, 0.4, 0.5, 0.6, 0.7),
    (2e-8, 1e-8, 0.3, 0.4, 0.5, 0.6, 0.7),
    (1e-8, 1.5e-8, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7),
)


class ReportHighdim(Workload):
    """``section_report`` on seeded directions with n = 10..18."""

    name = "report-highdim"
    DIMENSIONS = tuple(range(10, 19))
    kernel_sizes = tuple(range(2, 19))
    VOLUME_TOL = 1e-10

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        # magnitudes in [0.25, 1]: small coordinates make the corner sum
        # cancel (error ~ 1e-16 * sum|terms| / |sum|), which the fixed
        # near-degenerate set below exercises on every seed alike
        self.directions = [rng.uniform(0.25, 1.0, n) * rng.choice([-1.0, 1.0], n) for n in self.DIMENSIONS]
        self.directions += [np.array(d) for d in NEAR_DEGENERATE]
        self.known_fault = [False] * len(self.DIMENSIONS) + [True] * len(NEAR_DEGENERATE)

    def run_round(self):
        return [sections.section_report(a) for a in self.directions]

    def operations(self, output) -> int:
        return len(self.directions)

    def same(self, first, other) -> bool:
        return [r.to_dict() for r in first] == [r.to_dict() for r in other]

    def check(self, output):
        faults, problems = 0, []
        for a, report, known in zip(self.directions, output, self.known_fault):
            found = self.check_report(a, report)
            if found and known:
                faults += 1
            else:
                problems += found
        return faults, problems

    def check_report(self, a, report) -> list[str]:
        n = len(a)
        problems = []
        unit = a / np.linalg.norm(a)
        if np.max(np.abs(report.direction - unit)) > 1e-15:
            problems.append(f"n={n}: report direction is not the normalized input")
        v = report.volume
        if not 2.0 ** (n - 1) * (1 - 1e-12) <= v <= math.sqrt(2.0) * 2.0 ** (n - 1) * (1 + 1e-12):
            problems.append(f"n={n}: volume {v!r} outside [2^(n-1), sqrt(2) 2^(n-1)]")
        exact = reference.section_volume(report.direction)
        if _rel(v, exact) > self.VOLUME_TOL:
            problems.append(f"n={n}: volume {v!r}, exact {exact!r}")
        if _rel(report.cone_sum, v / 2.0) > self.VOLUME_TOL:
            problems.append(f"n={n}: cone sum {report.cone_sum!r}, half volume {v / 2.0!r}")
        if report.slab_max_error > self.VOLUME_TOL * v:
            problems.append(f"n={n}: slab identity off by {report.slab_max_error!r}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Thm3N4, GridN3, ReportHighdim)}
