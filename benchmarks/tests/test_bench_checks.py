"""Each output check of the benchmark rejects a deliberately wrong answer."""

import dataclasses
import math

import numpy as np
import pytest

import workloads
from cube_sections import casework, search, sections


def _messages(problems):
    return " | ".join(problems)


# ---------------------------------------------------------------- thm3-n4


@pytest.fixture(scope="module")
def thm3_output():
    """A correct Theorem 3 result: the solvers' roots and the expected classes
    with the package's own sigma and volume at each class vector."""
    points = [
        search.CriticalPoint(
            canonical=vec,
            sigma=sections.normalized_section(vec),
            volume=sections.central_volume(vec),
            classification=label,
            basin_count=1,
            diagonal_k=diag,
        )
        for vec, _, label, diag in workloads.Thm3N4.expected_classes().values()
    ]
    return {
        "unequal": casework.solve_n4_system_unequal(),
        "triple": casework.solve_n4_system_triple(),
        "points": points,
    }


def _thm3_check(output, **changes):
    return workloads.Thm3N4(0).check({**output, **changes})


def test_thm3_accepts_the_correct_result(thm3_output):
    assert _thm3_check(thm3_output) == (0, [])


@pytest.mark.parametrize("field", ["volume", "sigma"])
def test_thm3_rejects_a_value_off_by_1e_9(thm3_output, field):
    points = list(thm3_output["points"])
    p = points[-1]
    points[-1] = dataclasses.replace(p, **{field: getattr(p, field) * (1 + 1e-9)})
    _, problems = _thm3_check(thm3_output, points=points)
    assert field in _messages(problems)


def test_thm3_rejects_a_missing_class(thm3_output):
    _, problems = _thm3_check(thm3_output, points=thm3_output["points"][:-1])
    assert "not found" in _messages(problems)


def test_thm3_rejects_an_extra_class(thm3_output):
    vec = np.array([1.0, 2.0, 3.0, 4.0]) / math.sqrt(30.0)
    extra = dataclasses.replace(thm3_output["points"][0], canonical=vec, diagonal_k=None)
    _, problems = _thm3_check(thm3_output, points=thm3_output["points"] + [extra])
    assert "no expected class" in _messages(problems)


def test_thm3_rejects_swapped_labels(thm3_output):
    points = list(thm3_output["points"])
    by_k = {p.diagonal_k: i for i, p in enumerate(points)}
    i3, i4 = by_k[3], by_k[4]
    points[i3], points[i4] = (
        dataclasses.replace(points[i3], classification=points[i4].classification),
        dataclasses.replace(points[i4], classification=points[i3].classification),
    )
    _, problems = _thm3_check(thm3_output, points=points)
    assert "labelled local-max" in _messages(problems)
    assert "labelled saddle" in _messages(problems)


def test_thm3_rejects_a_wrong_unequal_root(thm3_output):
    wrong = [thm3_output["unequal"][0] + np.array([0.0, 1e-6, 0.0])]
    _, problems = _thm3_check(thm3_output, unequal=wrong)
    assert "unequal-pair system" in _messages(problems)


def test_thm3_rejects_a_missing_or_misflagged_triple_root(thm3_output):
    triple = thm3_output["triple"]
    _, problems = _thm3_check(thm3_output, triple=triple[1:])
    assert "triple-equal system" in _messages(problems)
    flipped = [dataclasses.replace(r, admissible=not r.admissible) for r in triple]
    _, problems = _thm3_check(thm3_output, triple=flipped)
    assert "admissible" in _messages(problems)


# ---------------------------------------------------------------- grid-n3


class SmallGrid(workloads.GridN3):
    RESOLUTION = 19
    QUADRATURE_ROWS = 8


@pytest.fixture(scope="module")
def grid_output():
    return SmallGrid(3).run_round()


def _with_volumes(output, change):
    code, text = output
    lines = text.splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    change(rows)
    body = [",".join(format(x, ".17g") for x in row) for row in rows]
    return code, "\n".join([lines[0]] + body) + "\n"


def test_grid_accepts_the_correct_result(grid_output):
    assert SmallGrid(3).check(grid_output) == (0, [])


def test_grid_rejects_one_volume_off_by_1e_9(grid_output):
    def perturb(rows):
        rows[40][2] *= 1 + 1e-9

    _, problems = SmallGrid(3).check(_with_volumes(grid_output, perturb))
    assert "exact" in _messages(problems)
    assert "pi - beta" in _messages(problems)


def test_grid_exact_check_alone_rejects_a_mirrored_error(grid_output):
    nb = 2 * SmallGrid.RESOLUTION - 1

    def perturb(rows):
        rows[2 * nb + 3][2] *= 1 + 1e-9
        rows[2 * nb + nb - 1 - 3][2] *= 1 + 1e-9

    _, problems = SmallGrid(3).check(_with_volumes(grid_output, perturb))
    assert "exact" in _messages(problems)
    assert "pi - beta" not in _messages(problems)


def test_grid_quadrature_rejects_scaled_volumes(grid_output):
    def perturb(rows):
        for row in rows:
            row[2] *= 1 + 1e-7

    _, problems = SmallGrid(3).check(_with_volumes(grid_output, perturb))
    assert "quadrature" in _messages(problems)


def test_grid_rejects_volumes_off_the_bounds(grid_output):
    def low(rows):
        rows[5][2] = 3.9

    def no_minimum(rows):
        for row in rows:
            if row[2] < 4.0 + 1e-9:
                row[2] = 4.0001

    assert "leave [4, 4 sqrt 2]" in _messages(SmallGrid(3).check(_with_volumes(grid_output, low))[1])
    assert "is not 4" in _messages(SmallGrid(3).check(_with_volumes(grid_output, no_minimum))[1])


def test_grid_rejects_a_missing_row(grid_output):
    code, text = grid_output
    lines = text.splitlines()
    _, problems = SmallGrid(3).check((code, "\n".join(lines[:-1])))
    assert "rows" in _messages(problems)


# ---------------------------------------------------------- report-highdim


class SmallReport(workloads.ReportHighdim):
    DIMENSIONS = (10, 12)


@pytest.fixture(scope="module")
def report_case():
    workload = SmallReport(5)
    return workload, workload.run_round()


def test_report_counts_only_the_near_degenerate_faults(report_case):
    workload, output = report_case
    assert workload.check(output) == (len(workloads.NEAR_DEGENERATE), [])


@pytest.mark.parametrize(
    "field, factor, message",
    [
        ("volume", 1 + 1e-9, "exact"),
        ("cone_sum", 1 + 1e-9, "cone sum"),
        ("volume", 2.0, "outside"),
    ],
)
def test_report_rejects_a_wrong_value(report_case, field, factor, message):
    workload, output = report_case
    wrong = list(output)
    wrong[0] = dataclasses.replace(wrong[0], **{field: getattr(wrong[0], field) * factor})
    faults, problems = workload.check(wrong)
    assert faults == len(workloads.NEAR_DEGENERATE)
    assert message in _messages(problems)


def test_report_rejects_a_slab_error_and_a_wrong_direction(report_case):
    workload, output = report_case
    r = output[1]
    bad = [dataclasses.replace(r, slab_max_error=1e-9 * r.volume), dataclasses.replace(r, direction=r.direction[::-1])]
    assert "slab" in _messages(workload.check_report(workload.directions[1], bad[0]))
    assert "direction" in _messages(workload.check_report(workload.directions[1], bad[1]))
