"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import wate
import wate.models
import wate.simulation
import run
import workloads
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY = {
    "sim-grid": lambda: workloads.SimGrid(reps=3, n=200),
    "boot-fit": lambda: workloads.BootFit(b=4, n=300),
    "report-par": lambda: workloads.ReportPar(b=4, n=200),
}


def _ready(name, tmp_path, seed=0):
    workload = TINY[name]()
    workload.prepare(str(tmp_path), seed)
    workload.setup()
    return workload


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_and_passes_its_own_check(name, tmp_path):
    workload = _ready(name, tmp_path)
    fields, _ = workload.invoke(1)
    assert fields
    assert workloads.compare(fields, fields, workload.rtol) == []
    assert workload.failed_in(fields) == 0
    tally = workloads.Tally(workload, fields)
    tally.invoke(1)
    assert tally.attempted == workload.operations(fields) > 0
    assert tally.failed == 0 and tally.problems == []


@pytest.mark.parametrize("name", sorted(TINY))
def test_check_rejects_a_perturbed_reference(name, tmp_path):
    workload = _ready(name, tmp_path)
    fields, _ = workload.invoke(1)
    key = sorted(fields)[0]
    index = next(i for i, v in enumerate(fields[key]) if isinstance(v, float) and v != 0.0)
    perturbed = {k: list(v) for k, v in fields.items()}
    perturbed[key][index] *= 1.0 + 10 * workload.rtol
    assert workloads.compare(fields, perturbed, workload.rtol)
    missing = {k: v for k, v in fields.items() if k != key}
    assert workloads.compare(fields, missing, workload.rtol)

    # A mismatching invocation counts every one of its operations as failed.
    tally = workloads.Tally(workload, perturbed)
    tally.invoke(1)
    assert tally.failed == tally.attempted > 0
    assert tally.problems


def test_recorded_reference_matches_the_workload_sizes():
    with open(workloads.REFERENCE_PATH) as fh:
        recorded = json.load(fh)
    assert set(recorded) == set(workloads.WORKLOADS)
    for name, cls in workloads.WORKLOADS.items():
        assert recorded[name]["config"] == cls().config()
        assert sorted(map(int, recorded[name]["outputs"])) == list(range(workloads.INPUT_SETS))


def test_span_self_times_are_non_negative_and_within_the_traced_wall(tmp_path):
    workload = _ready("sim-grid", tmp_path)
    original = wate.models.fit_outcome
    tracer = Tracer()
    start = time.perf_counter_ns()
    with tracer.active(1):
        workload.invoke(1)
    wall = time.perf_counter_ns() - start
    own = tracer.self_times_ns()
    assert own
    assert all(0 <= ns <= wall for ns in own)
    assert sum(own) <= wall
    names = {span.name for span in tracer.finished_spans()}
    # simulation and estimators import these by name; their calls must
    # still be seen.
    assert {
        "cli.main", "simulation.run_study", "models.fit_outcome",
        "models.predict_outcome", "estimators.estimate", "design.DesignSpec.matrix",
    } <= names
    # Uninstalling restores every rebound name.
    assert wate.models.fit_outcome is original
    assert wate.simulation.fit_outcome is original
    assert wate.fit_outcome is original


@pytest.mark.parametrize("name, per_fit, fits", [("sim-grid", 22, 4), ("boot-fit", 2, 2)])
def test_traced_counts_repeat_exactly(name, per_fit, fits, tmp_path):
    workload = _ready(name, tmp_path)
    tracer = Tracer()
    for invocation in (1, 2):
        with tracer.active(invocation):
            workload.invoke(1)
    metrics = workloads.layer_metrics(tracer, 2, workload.replicates)
    assert metrics["models.predict_outcome.per_fit"] == per_fit
    assert metrics["counts.fits_per_replicate"] == fits
    assert set(metrics) | {"trace.wall_s", "trace.overhead_frac", "pool.speedup"} == set(
        workloads.per_layer_units()
    )


def test_report_par_reports_are_byte_identical_with_one_and_two_workers(tmp_path):
    workload = _ready("report-par", tmp_path)
    _, serial = workload.invoke(1)
    _, pooled = workload.invoke(2)
    assert serial and serial == pooled


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == workloads.per_layer_units()
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]


def test_run_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
