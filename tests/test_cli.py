import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cube_sections
from cube_sections.cli import main
from cube_sections.piecewise import PiecewisePolynomial
from cube_sections.sections import central_volume


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


# -- volume ------------------------------------------------------------------


def test_volume_json(capsys):
    data = run_json(capsys, "volume", "-a", "1,1,2,2", "--format", "json")
    assert data["volume"] == pytest.approx(10.0 * math.sqrt(10.0) / 3.0, rel=1e-13)
    assert data["sigma"] == pytest.approx(
        5.0 * math.sqrt(10.0) * math.pi / 12.0, rel=1e-13
    )
    assert data["cone_sum"] == pytest.approx(data["volume"] / 2.0, rel=1e-10)


def test_volume_exact_shorthand(capsys):
    via_exact = run_json(capsys, "volume", "--exact", "2-diag:3")
    via_coords = run_json(capsys, "volume", "-a", "0,1,1")
    assert via_exact["volume"] == via_coords["volume"]
    assert via_exact["sigma"] == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-13)


def test_volume_csv_has_17_significant_digits(capsys):
    code, out = run(capsys, "volume", "-a", "1,0,0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field,value"
    row = dict(line.split(",", 1) for line in lines[1:])
    assert row["sigma"] == "3.1415926535897931"
    assert row["volume"] == "4"
    assert row["direction"] == "1;0;0"


def test_volume_pretty(capsys):
    code, out = run(capsys, "volume", "-a", "1,1", "--format", "pretty")
    assert code == 0
    assert "sigma" in out and "volume" in out


def test_json_round_trip(capsys):
    data = run_json(capsys, "volume", "-a", "0.3,0.4,0.5")
    direction = ",".join(repr(v) for v in data["direction"])
    again = run_json(capsys, "volume", "-a", direction)
    assert again["volume"] == data["volume"]


# -- check / classify ----------------------------------------------------------


def test_check_critical_direction(capsys):
    code, out = run(capsys, "check", "-a", "1,1,2,2")
    assert code == 0
    assert json.loads(out)["verdict"] == "critical"


def test_check_noncritical_direction_exits_1(capsys):
    code, out = run(capsys, "check", "-a", "0.3,0.5,0.81")
    assert code == 1
    assert json.loads(out)["verdict"] == "not-critical"


def test_check_tolerance_flag(capsys):
    code, out = run(capsys, "check", "-a", "1,1,2,2.001", "--tol", "0.01")
    assert code == 0
    assert json.loads(out)["verdict"] == "critical"


def test_classify(capsys):
    data = run_json(capsys, "classify", "-a", "1,1,2,2")
    assert data["classification"] == "saddle"
    data = run_json(capsys, "classify", "--exact", "1-diag:3")
    assert data["classification"] == "global-min"
    data = run_json(capsys, "classify", "--exact", "2-diag:4")
    assert data["classification"] == "global-max"


def test_classify_scaled_input(capsys):
    # the norm of (1e200, 1e200) overflows; peak-first scaling does not
    _, reference = run(capsys, "classify", "-a", "1,1")
    code, out = run(capsys, "classify", "-a", "1e200,1e200")
    assert code == 0
    assert json.loads(out)["classification"] == json.loads(reference)["classification"]
    assert out == reference


def test_classify_noncritical(capsys):
    code, out = run(capsys, "classify", "-a", "0.3,0.5,0.81")
    assert code == 1
    assert json.loads(out)["classification"] == "not-critical"


# -- scan -----------------------------------------------------------------------


def test_scan_json(capsys):
    points = run_json(
        capsys, "scan", "--dim", "2", "--seeds", "20", "--format", "json"
    )
    assert [p["classification"] for p in points] == ["global-min", "global-max"]
    assert points[0]["diagonal_k"] == 1


def test_scan_deterministic(capsys):
    argv = ("scan", "--dim", "3", "--seeds", "25", "--rng", "7")
    code_a, out_a = run(capsys, *argv)
    code_b, out_b = run(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_scan_csv(capsys):
    code, out = run(
        capsys, "scan", "--dim", "2", "--seeds", "10", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("direction,")
    assert len(lines) == 3


def test_scan_pretty(capsys):
    argv = ("scan", "--dim", "2", "--seeds", "10")
    points = run_json(capsys, *argv)
    code, out = run(capsys, *argv, "--format", "pretty")
    assert code == 0
    # one block of aligned "key  value" lines per point, each followed by a blank line
    blocks = out.split("\n\n")
    assert len(blocks) == len(points) + 1 and blocks[-1] == ""
    for block, point in zip(blocks, points):
        width = max(map(len, point))
        lines = block.splitlines()
        assert [line[:width].rstrip() for line in lines] == list(point)
        texts = [line[width + 2 :] for line in lines]
        assert json.loads(texts[0]) == point["direction"]
        assert [float(t) for t in texts[1:3]] == [point["sigma"], point["volume"]]
        assert texts[3:] == [point["classification"], str(point["basin_count"]), str(point["diagonal_k"])]


def test_scan_rejects_dim_below_2(capsys):
    code, _ = run(capsys, "scan", "--dim", "1")
    assert code == 2


def test_scan_rejects_dim_above_the_kernel_at_once(capsys):
    # the kernel takes at most 20 weights; the config refuses 21 before
    # refining anything
    start = time.perf_counter()
    code, _ = run(capsys, "scan", "--dim", "21", "--seeds", "1")
    assert code == 2
    assert time.perf_counter() - start < 0.5


# -- tables ----------------------------------------------------------------------


def test_diagonal_table(capsys):
    code, out = run(capsys, "diagonal-table", "--dim-max", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,normalized_volume"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 1 + 2 + 3 + 4 + 5
    first = rows[0]
    assert (first[0], first[1]) == ("1", "1")
    assert first[2] == "1"
    two_diag = next(r for r in rows if r[0] == "4" and r[1] == "2")
    assert float(two_diag[2]) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert len(two_diag[2]) >= 17  # 17 significant digits requested


def test_diagonal_table_rejects_small_max(capsys):
    code, _ = run(capsys, "diagonal-table", "--dim-max", "2")
    assert code == 2


def test_fig1_grid_rejects_resolution_below_2(capsys):
    code, _ = run(capsys, "fig1-grid", "--resolution", "1")
    assert code == 2


def test_fig1_grid(capsys):
    code, out = run(capsys, "fig1-grid", "--resolution", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,beta,volume"
    assert len(lines) == 1 + 5 * 9  # alpha count x beta count
    volumes = [float(line.split(",")[2]) for line in lines[1:]]
    assert min(volumes) >= 4.0 - 1e-9
    assert max(volumes) <= 4.0 * math.sqrt(2.0) + 1e-9


def test_fig1_grid_is_the_per_direction_csv(capsys):
    # the batched grid against one central_volume call per direction
    r = 21
    code, out = run(capsys, "fig1-grid", "--resolution", str(r))
    assert code == 0
    lines = ["alpha,beta,volume"]
    for alpha in np.linspace(0.0, math.pi / 2.0, r).tolist():
        sa, ca = math.sin(alpha), math.cos(alpha)
        for beta in np.linspace(0.0, math.pi, 2 * r - 1).tolist():
            volume = central_volume([sa, ca * math.sin(beta), ca * math.cos(beta)])
            lines.append(",".join(format(x, ".17g") for x in (alpha, beta, volume)))
    assert out == "\n".join(lines) + "\n"


# -- density ----------------------------------------------------------------------


def test_density_at_point(capsys):
    data = run_json(capsys, "density", "-a", "1,1,1", "--at", "0")
    assert data["density"] == pytest.approx(3.0 / 8.0, rel=1e-13)
    assert data["cdf"] == pytest.approx(0.5, abs=1e-13)


def test_density_object_round_trips(capsys):
    data = run_json(capsys, "density", "-a", "1,1")
    assert data["weights"] == [1.0, 1.0]
    rebuilt = PiecewisePolynomial(data["breakpoints"], data["pieces"])
    assert rebuilt(0.0) == pytest.approx(0.5, rel=1e-14)
    assert rebuilt.total_integral == pytest.approx(1.0, abs=1e-14)


def test_density_beyond_the_float_range(capsys):
    data = run_json(capsys, "density", "-a", "2e-309,2e-309", "--at", "0")
    assert data["density"] == math.inf
    assert data["cdf"] == 0.5


# -- oracle ------------------------------------------------------------------------


def test_oracle_quadrature(capsys):
    data = run_json(capsys, "oracle", "-a", "1,1,1", "--method", "quad")
    assert data["method"] == "quad"
    # the estimate is the central section volume, 3*sqrt(3) for the diagonal
    assert data["estimate"] == pytest.approx(3.0 * math.sqrt(3.0), abs=1e-8)


def test_oracle_quadrature_scaled_input(capsys):
    # the norm of (1e-200, 1e-200, 2e-200) underflows; peak-first scaling does not
    plain = run_json(capsys, "oracle", "-a", "1,1,2", "--method", "quad")
    scaled = run_json(capsys, "oracle", "-a", "1e-200,1e-200,2e-200", "--method", "quad")
    assert scaled["estimate"] == pytest.approx(plain["estimate"], rel=1e-12, abs=0.0)


def test_oracle_monte_carlo_deterministic(capsys):
    argv = (
        "oracle", "-a", "1,1,2,2", "--method", "mc",
        "--samples", "20000", "--rng", "3",
    )
    first = run_json(capsys, *argv)
    second = run_json(capsys, *argv)
    assert first["mean"] == second["mean"]
    assert first["estimate"] == first["mean"]
    exact = 10.0 * math.sqrt(10.0) / 3.0
    assert abs(first["mean"] - exact) <= 5.0 * first["std_error"]


# -- solvers and verification --------------------------------------------------------


def test_solve_systems(capsys):
    data = run_json(capsys, "solve-systems")
    assert len(data["unequal"]) == 1
    np.testing.assert_allclose(
        data["unequal"][0], np.array([1.0, 2.0, 2.0]) / math.sqrt(10.0), atol=1e-12
    )
    flags = sorted(root["admissible"] for root in data["triple"])
    assert flags == [False, True]
    assert data["interior_bound"] == pytest.approx(1.0 / math.sqrt(12.0))


def test_verify_three_dim_classification(capsys):
    code, out = run(capsys, "verify", "--thm", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "PASS"
    assert all(line.startswith("PASS: ") for line in lines[:-1])


def test_verify_four_dim_critical_directions(capsys):
    code, out = run(capsys, "verify", "--thm", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "PASS"
    # the triple-equal system's root below the interior bound is reported
    # beside the checks
    checks = [line for line in lines[:-1] if not line.startswith("rejected triple root: ")]
    assert len(checks) == len(lines) - 2
    assert all(line.startswith("PASS: ") for line in checks)


# -- argument errors -------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("volume", "-a", "abc"),
        ("volume", "-a", "1,,2"),
        ("volume", "-a", "0,0,0"),
        ("volume", "-a", "1,inf"),
        ("volume", "--exact", "0-diag:3"),
        ("volume", "--exact", "5-diag:3"),
        ("volume", "--exact", "nonsense"),
        ("volume",),
        ("no-such-command",),
        ("volume", "-a", "1,1", "--exact", "2-diag:2"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code = main(list(argv))
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "-a", "1,1", "--method", "quad", "-r", "nan"),
        ("oracle", "-a", "1,1", "--method", "quad", "-r", "inf"),
        ("oracle", "-a", "1,1", "--method", "mc", "--samples", "10", "-r", "nan"),
        ("oracle", "-a", "1,1", "--method", "mc", "--samples", "10", "--rng", "-1"),
        ("density", "-a", "1,1", "--at", "nan"),
        ("scan", "--dim", "3", "--seeds", "1", "--rng", "-1"),
    ],
)
def test_invalid_numbers_exit_2(capsys, argv):
    assert main(list(argv)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_import_loads_no_scipy():
    # a fresh interpreter: other tests import scipy and sympy into this one;
    # the n=4 systems are solved from stored coefficients, without sympy
    code = (
        "import sys, cube_sections; "
        "cube_sections.solve_n4_system_unequal(); "
        "cube_sections.solve_n4_system_triple(); "
        "print(sorted(k for k in sys.modules "
        "if k.split('.')[0] in ('scipy', 'sympy')))"
    )
    src = str(Path(cube_sections.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "[]"
