"""The traced run, the benchmark's declared metrics and its refusal without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from cube_sections import search

BENCH_DIR = Path(__file__).resolve().parents[1]

SEARCH = {
    "search.certified_per_seed",
    "search.refine_calls_per_seed",
    "search.density_calls_per_seed",
    "search.refine_s",
    "search.classify_s",
}
KERNEL = {
    "weights.calls",
    "weights.self_s",
    "density.calls",
    "density.corner_terms",
    "density.self_s",
    "density.ns_per_corner_term",
    "density.sign_table_bytes",
    "sections.calls",
    "sections.self_s",
}
CRITICALITY = {"criticality.grad_calls", "criticality.residual_calls", "criticality.self_s"}


class SmallThm3(workloads.Thm3N4):
    SCAN_SEEDS = 3


class SmallGrid(workloads.GridN3):
    RESOLUTION = 7


class SmallReport(workloads.ReportHighdim):
    DIMENSIONS = (10,)


@pytest.mark.parametrize(
    "workload, nonzero",
    [
        (SmallThm3(1), KERNEL | CRITICALITY | SEARCH | {"casework.solve_s"}),
        (SmallGrid(1), KERNEL | {"cli.self_s"}),
        (SmallReport(1), KERNEL | {"sections.kernel_calls_per_report"}),
    ],
    ids=lambda v: getattr(v, "name", ""),
)
def test_traced_round_counts_every_exercised_layer(workload, nonzero):
    plain = workload.run_round()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workload.run_round()
    finally:
        tracer.uninstall()
    assert workload.same(plain, traced)
    metrics = tracer.metrics(1)
    assert {name for name, value in metrics.items() if value != 0} == nonzero
    assert all(value >= 0 for value in metrics.values())


def test_uninstall_restores_the_package():
    original = search.refine_critical
    tracer = tracing.Tracer()
    tracer.install()
    assert search.refine_critical is not original
    tracer.uninstall()
    assert search.refine_critical is original


def test_recursive_refines_count_as_re_entries():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # a zero coordinate makes refine_critical recurse on the reduced direction
        search.refine_critical([0.0, 0.3, 0.4, 0.5])
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1)
    assert metrics["search.refine_calls_per_seed"] >= 2
    assert metrics["search.certified_per_seed"] in (0.0, 1.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert spec["paths"] == [BENCH_DIR.name]


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "grid-n3", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
