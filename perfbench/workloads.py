"""The three benchmark workloads, their output checks and the measuring child.

Each workload drives one of wate's three fit-then-fill engines through a
public entry point, so a change that speeds up one engine and slows another
shows up on some workload:

* ``sim-grid``   ``wate simulate`` (``cli.main`` in-process) runs
                 ``simulation._replicate_values``;
* ``boot-fit``   ``wate.bootstrap_se`` runs ``bootstrap.run_pipeline``;
* ``report-par`` ``wate estimate`` (``cli.main`` in-process) runs
                 ``cli._report_cells`` in a process pool.

``run.py`` starts this file as a fresh process (``measure`` or ``trace``)
and reads the JSON it prints on its last line. ``record`` rewrites
``reference.json`` from the code in the checkout; run it only at a commit
whose outputs are known good.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any

import numpy as np

import wate
import wate.cli
from calibrate import SpeedCorrector
from tracer import RESULT_COUNTERS, TRACED, Tracer, display_name

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# The workload seed picks one of this many input sets, each with outputs
# recorded in reference.json, so any seed gets an output check.
INPUT_SETS = 32

# Every run makes at least this many timed invocations, even when one
# invocation is slower than the whole time budget.
MIN_SAMPLES = 3

Fields = dict[str, list[Any]]


class InvocationFailed(Exception):
    """An invocation that exited non-zero."""


def _cli(argv: list[str]) -> str:
    """Run ``wate <argv>`` in-process and return what it wrote to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = wate.cli.main(argv)
    if code != 0:
        raise InvocationFailed(f"wate {argv[0]} exited with code {code}")
    return out.getvalue()


def _csv_rows(text: str) -> list[dict[str, str]]:
    """Data rows of a wate CSV report; ``#`` lines echo the configuration."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(body))


def _num(text: str) -> float | None:
    return float(text) if text.strip() else None


def _cohort(input_seed: int, n: int) -> wate.ObservationalDataset:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=input_seed, spawn_key=(n,)))
    return wate.generate_dataset(1, n, rng).observed()


class SimGrid:
    """The paper's Monte Carlo study: ``wate simulate --outcome-model 1
    --n 1000 --workers 1`` over the default 30-cell grid.

    Why: each replicate fits 2 propensity and 2 outcome models and then fills
    30 cells, so design evaluation, prediction and the estimators do most of
    the work and fitting little; fit-once-estimate-many shows here first. Its
    set-up is the 10^6-draw ``reference_truth``, which ``run_study`` reuses
    from the cache, so replacing it with quadrature moves ``setup_s`` and
    ``peak_rss_mb`` here and nowhere else.
    """

    name = "sim-grid"
    operation = "replicate-cells"
    engine = "simulation.run_study"
    # Reports print 10 significant digits.
    rtol = 1e-8

    def __init__(self, reps: int = 50, n: int = 1000):
        self.reps = reps
        self.n = n
        self.input_seed = 0

    def config(self) -> dict[str, Any]:
        return {"outcome_model": 1, "n": self.n, "reps": self.reps, "cells": 30}

    @property
    def replicates(self) -> int:
        return self.reps

    def prepare(self, work_dir: str, input_seed: int) -> None:
        self.input_seed = input_seed

    def setup(self) -> None:
        wate.reference_truth(1, 10**6)

    def invoke(self, workers: int) -> tuple[Fields, str]:
        text = _cli([
            "simulate", "--outcome-model", "1", "--n", str(self.n),
            "--reps", str(self.reps), "--seed", str(self.input_seed),
            "--workers", str(workers), "--format", "csv",
        ])
        fields: Fields = {}
        for row in _csv_rows(text):
            key = "/".join([row["estimator"], row["pi_spec"], row["m_spec"], row["estimand"]])
            bias, truth = _num(row["bias"]), _num(row["truth"])
            # The mean estimate, bias + truth, does not depend on how the
            # population value is computed.
            mean = None if bias is None or truth is None else bias + truth
            fields[key] = [
                _num(row["sd"]), _num(row["mc_se"]),
                int(row["n_ok"]), int(row["n_failed"]), mean,
            ]
        return fields, text

    def operations(self, reference: Fields) -> int:
        return self.reps * len(reference)

    def failed_in(self, fields: Fields) -> int:
        return sum(v[3] for v in fields.values())


class BootFit:
    """The README library quick start on a generated n=5000 cohort:
    ``wate.bootstrap_se`` with the effect on the treated, AIPW, main effects
    in both models, propensities truncated at (1, 99) and one worker.

    Why: one cell per refit at large n, so IRLS and QR fitting dominate and
    the estimators are a few percent; a faster fitter shows here and
    fit-once-estimate-many should not. It is the only workload that goes
    through ``bootstrap.run_pipeline``.
    """

    name = "boot-fit"
    operation = "bootstrap-replicates"
    engine = "bootstrap.bootstrap_vector"
    rtol = 1e-9

    def __init__(self, b: int = 50, n: int = 5000):
        self.b = b
        self.n = n
        self.path = ""

    def config(self) -> dict[str, Any]:
        return {"outcome_model": 1, "n": self.n, "b": self.b, "estimand": "att"}

    @property
    def replicates(self) -> int:
        # Pipeline evaluations: the full-data point estimate plus b refits.
        return self.b + 1

    def prepare(self, work_dir: str, input_seed: int) -> None:
        self.path = os.path.join(work_dir, f"cohort-{self.n}-{input_seed}.csv")
        wate.save_csv(_cohort(input_seed, self.n), self.path)

    def setup(self) -> None:
        self.ds = wate.load_csv(self.path, treatment="a", outcome="y")
        names = self.ds.covariate_names
        self.pipeline = wate.EstimationPipeline(
            estimand=wate.effect_on_treated(),
            kind=wate.EstimatorKind.AIPW,
            pi_design=wate.main_effects(names),
            m_design=wate.main_effects(names),
            truncate=(1.0, 99.0),
        )

    def invoke(self, workers: int) -> tuple[Fields, str]:
        result = wate.bootstrap_se(self.ds, self.pipeline, b=self.b, seed=0, workers=workers)
        return {"att": [result.point.value, result.se, result.b_ok]}, ""

    def operations(self, reference: Fields) -> int:
        return self.b

    def failed_in(self, fields: Fields) -> int:
        return self.b - fields["att"][2]


class ReportPar:
    """The analyst's CLI call: ``wate estimate <n=1000 cohort> --bootstrap
    200 --seed 1 --workers 2`` with the default 4 estimands x 3 estimators
    plus the unweighted row.

    Why: it runs ``cli._report_cells``, parses the CSV on every call and goes
    through the process pool, whose chunking a shared parallel map would
    replace. B=200 at n=1000 is the ROADMAP's baseline shape. The report must
    be byte-identical to the same call with ``--workers 1``.
    """

    name = "report-par"
    operation = "replicate-cells"
    engine = "bootstrap.bootstrap_vector"
    # Reports print 6 significant digits; a last-bit change may move the 6th.
    rtol = 1.5e-5

    def __init__(self, b: int = 200, n: int = 1000, workers: int = 2):
        self.b = b
        self.n = n
        self.workers = workers
        self.path = ""

    def config(self) -> dict[str, Any]:
        return {"outcome_model": 1, "n": self.n, "b": self.b, "bootstrap_seed": 1}

    @property
    def replicates(self) -> int:
        # Report evaluations: the full-data row plus b bootstrap replicates.
        return self.b + 1

    def prepare(self, work_dir: str, input_seed: int) -> None:
        self.path = os.path.join(work_dir, f"cohort-{self.n}-{input_seed}.csv")
        wate.save_csv(_cohort(input_seed, self.n), self.path)

    def setup(self) -> None:
        # The CLI parses the CSV again on every call; set-up pays the first load.
        wate.load_csv(self.path, treatment="a", outcome="y")

    def invoke(self, workers: int) -> tuple[Fields, str]:
        text = _cli([
            "estimate", self.path, "--bootstrap", str(self.b), "--seed", "1",
            "--workers", str(workers), "--format", "csv",
        ])
        fields: Fields = {}
        for row in _csv_rows(text):
            fields[f"{row['method']}/{row['estimand']}"] = [
                _num(row["estimate"]), _num(row["se"]), int(row["bootstrap_ok"]),
            ]
        return fields, text

    def operations(self, reference: Fields) -> int:
        return self.b * len(reference)

    def failed_in(self, fields: Fields) -> int:
        return sum(self.b - v[2] for v in fields.values())


WORKLOADS = {w.name: w for w in (SimGrid, BootFit, ReportPar)}


def compare(fields: Fields, reference: Fields, rtol: float) -> list[str]:
    """Differences between an invocation's checked fields and the reference."""
    problems = []
    if set(fields) != set(reference):
        missing = sorted(set(reference) - set(fields))
        extra = sorted(set(fields) - set(reference))
        problems.append(f"cells differ: missing {missing}, unexpected {extra}")
    for key in sorted(set(fields) & set(reference)):
        got, want = fields[key], reference[key]
        if len(got) != len(want):
            problems.append(f"{key}: {len(got)} fields, expected {len(want)}")
            continue
        for i, (g, w) in enumerate(zip(got, want)):
            if g is None or w is None:
                ok = g is None and w is None
            else:
                ok = abs(g - w) <= rtol * max(abs(g), abs(w))
            if not ok:
                problems.append(f"{key}[{i}]: got {g!r}, expected {w!r}")
    return problems


class Tally:
    """Operations attempted and failed over every invocation of a run."""

    def __init__(self, workload: Any, reference: Fields):
        self.workload = workload
        self.reference = reference
        self.per_invocation = workload.operations(reference)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_text: str | None = None

    def invoke(self, workers: int) -> float:
        """One checked invocation; returns its wall time in seconds.

        An invocation that raises, exits non-zero, differs from the
        reference or (for a text report) from the first report of the run
        counts all of its operations as failed.
        """
        self.attempted += self.per_invocation
        start = time.perf_counter()
        try:
            fields, text = self.workload.invoke(workers)
        except (Exception, SystemExit) as exc:
            elapsed = time.perf_counter() - start
            self._fail(f"invocation raised {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        problems = compare(fields, self.reference, self.workload.rtol)
        if self.first_text is None:
            self.first_text = text
        elif text != self.first_text:
            problems.append(f"report bytes differ at workers={workers}")
        if problems:
            self._fail("; ".join(problems[:3]))
        else:
            self.failed += self.workload.failed_in(fields)
        return elapsed

    def _fail(self, problem: str) -> None:
        self.failed += self.per_invocation
        if problem not in self.problems and len(self.problems) < 5:
            self.problems.append(problem)


def load_reference(workload: Any, input_seed: int) -> Fields:
    with open(REFERENCE_PATH) as fh:
        recorded = json.load(fh)[workload.name]
    if recorded["config"] != workload.config():
        raise SystemExit(
            f"reference.json was recorded for {recorded['config']}, "
            f"the workload is {workload.config()}"
        )
    return recorded["outputs"][str(input_seed)]


def conditions() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def _peak_rss_mb(who: int) -> float:
    # ru_maxrss is in KiB on Linux; for RUSAGE_CHILDREN it is the largest
    # single waited-for descendant, i.e. the largest pool worker.
    return resource.getrusage(who).ru_maxrss / 1024.0


def _until(seconds: float, start: float, done: int) -> bool:
    return done < MIN_SAMPLES or time.perf_counter() - start < seconds


def measure(workload: Any, input_seed: int, seconds: float, work_dir: str) -> dict[str, Any]:
    """Untraced closed loop: one client, invocations back to back."""
    reference = load_reference(workload, input_seed)
    workload.prepare(work_dir, input_seed)
    workload.setup()
    workers = getattr(workload, "workers", 1)
    tally = Tally(workload, reference)
    extra: dict[str, Any] = {}
    if workers > 1:
        # The serial report is the byte reference for every pooled one.
        extra["serial_invocation_s"] = tally.invoke(1)
    tally.invoke(workers)  # warm-up
    speed = SpeedCorrector()
    times: list[float] = []
    corrected: list[float] = []
    start = time.perf_counter()
    while _until(seconds, start, len(times)):
        times.append(tally.invoke(workers))
        corrected.append(speed.correct(times[-1]))
    return {
        "times": times,
        "corrected_times": corrected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
        "worker_peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
        "replicates": workload.replicates,
        "input_set": input_seed,
        "input_path": getattr(workload, "path", ""),
        "conditions": conditions(),
        **extra,
    }


# Functions whose set-up cost is reported from the traced set-up phase.
SETUP_TRACED = (
    "simulation.reference_truth",
    "simulation.true_estimands",
    "data.load_csv",
    "data.validate",
)
# Functions whose raised errors are counted per invocation.
ERRORS_COUNTED = ("estimators.estimate", "models.fit_propensity", "models.fit_outcome")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for qualified in TRACED:
        name = display_name(qualified)
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for qualified in ERRORS_COUNTED:
        units[f"{display_name(qualified)}.errors"] = "count"
    for qualified, (counter, _) in RESULT_COUNTERS.items():
        units[f"{display_name(qualified)}.{counter}"] = "count"
    units["models.predict_outcome.per_fit"] = "ratio"
    units["counts.estimate_per_replicate"] = "ratio"
    units["counts.fits_per_replicate"] = "ratio"
    for qualified in SETUP_TRACED:
        units[f"setup.{display_name(qualified)}.self_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    units["pool.speedup"] = "ratio"
    return units


def layer_metrics(tracer: Tracer, invocations: int, replicates: int) -> dict[str, float]:
    """Per-invocation counts and self times from the traced warm invocations
    (invocation ids 1..invocations); invocation 0 is the set-up."""
    spans = tracer.finished_spans()
    self_ns = tracer.self_times_ns()
    calls: dict[str, int] = {}
    errors: dict[str, int] = {}
    own: dict[str, int] = {}
    setup_own: dict[str, int] = {}
    for span, ns in zip(spans, self_ns):
        if span.invocation == 0:
            setup_own[span.name] = setup_own.get(span.name, 0) + ns
            continue
        calls[span.name] = calls.get(span.name, 0) + 1
        errors[span.name] = errors.get(span.name, 0) + int(span.error)
        own[span.name] = own.get(span.name, 0) + ns
    out: dict[str, float] = {}
    for qualified in TRACED:
        name = display_name(qualified)
        out[f"{name}.calls"] = calls.get(qualified, 0) / invocations
        out[f"{name}.self_s"] = own.get(qualified, 0) / invocations / 1e9
    for qualified in ERRORS_COUNTED:
        out[f"{display_name(qualified)}.errors"] = errors.get(qualified, 0) / invocations
    for qualified, (counter, _) in RESULT_COUNTERS.items():
        total = tracer.counters.get(f"{qualified}.{counter}", 0)
        out[f"{display_name(qualified)}.{counter}"] = total / invocations
    fit_outcome = out["models.fit_outcome.calls"]
    out["models.predict_outcome.per_fit"] = (
        out["models.predict_outcome.calls"] / fit_outcome if fit_outcome else 0.0
    )
    out["counts.estimate_per_replicate"] = out["estimators.estimate.calls"] / replicates
    out["counts.fits_per_replicate"] = (
        out["models.fit_propensity.calls"] + fit_outcome
    ) / replicates
    for qualified in SETUP_TRACED:
        out[f"setup.{display_name(qualified)}.self_s"] = setup_own.get(qualified, 0) / 1e9
    return out


def trace(
    workload: Any, input_seed: int, seconds: float, work_dir: str, spans_path: str
) -> dict[str, Any]:
    """Traced run with one worker: untraced and traced invocations alternate,
    then the engine's pool is timed at one and two workers."""
    reference = load_reference(workload, input_seed)
    workload.prepare(work_dir, input_seed)
    tracer = Tracer()
    with tracer.active(0):
        workload.setup()
    tally = Tally(workload, reference)
    tally.invoke(1)  # warm-up
    speed = SpeedCorrector()
    untraced: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while _until(0.75 * seconds, start, len(traced)):
        for use_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if use_trace:
                with tracer.active(len(traced) + 1):
                    traced.append(speed.correct(tally.invoke(1)))
            else:
                untraced.append(speed.correct(tally.invoke(1)))

    # The engine's span alone is wrapped here, so nothing inside it, and
    # nothing in the pool workers, pays for tracing. Should the engine
    # function be gone, the whole invocation is timed instead.
    engine = Tracer([workload.engine])
    pool_workers: list[int] = []
    invocation_s: dict[int, list[float]] = {1: [], 2: []}
    start = time.perf_counter()
    while _until(0.25 * seconds, start, len(pool_workers) // 2):
        for workers in ((1, 2) if len(pool_workers) % 4 == 0 else (2, 1)):
            with engine.active(len(pool_workers)):
                invocation_s[workers].append(tally.invoke(workers))
            pool_workers.append(workers)
    engine_s: dict[int, list[float]] = {1: [], 2: []}
    for span in engine.finished_spans():
        if span.parent == -1:
            engine_s[pool_workers[span.invocation]].append(span.duration_ns / 1e9)
    pool_s = engine_s if engine_s[1] and engine_s[2] else invocation_s

    tracer.write(spans_path)
    metrics = layer_metrics(tracer, len(traced), workload.replicates)
    traced_wall = statistics.median(traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = traced_wall / statistics.median(untraced) - 1.0
    metrics["pool.speedup"] = statistics.median(pool_s[1]) / statistics.median(pool_s[2])
    units = per_layer_units()
    return {
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "untraced_times": untraced,
        "traced_times": traced,
        "spans": len(tracer),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "replicates": workload.replicates,
        "input_set": input_seed,
        "conditions": conditions(),
    }


def record(work_dir: str) -> None:
    """Rewrite reference.json from the code in this checkout (one worker)."""
    os.makedirs(work_dir, exist_ok=True)
    recorded: dict[str, Any] = {}
    for cls in WORKLOADS.values():
        workload = cls()
        outputs = {}
        for seed in range(INPUT_SETS):
            workload.prepare(work_dir, seed)
            workload.setup()
            fields, _ = workload.invoke(1)
            outputs[str(seed)] = fields
            print(f"{workload.name} input set {seed}: {len(fields)} cells", file=sys.stderr)
        recorded[workload.name] = {"config": workload.config(), "outputs": outputs}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("measure", "trace", "record"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    if args.mode == "record":
        record(args.work_dir)
        return 0
    if args.workload is None:
        parser.error(f"{args.mode} needs --workload")
    workload = WORKLOADS[args.workload]()
    input_seed = args.seed % INPUT_SETS
    if args.mode == "measure":
        result = measure(workload, input_seed, args.seconds, args.work_dir)
    else:
        result = trace(workload, input_seed, args.seconds, args.work_dir, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
