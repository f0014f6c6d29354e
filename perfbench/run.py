"""wate benchmark: three closed-loop workloads, end to end and layer by layer.

Run from the root of a wate checkout:

    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --workload sim-grid --seed 3 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``, and ``failed_frac`` as ``failed``/``attempted``); ``--trace 1``
prints the per-layer metrics of a separate traced run. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Full results, run conditions and trace spans are
written under ``.bench_build/perfbench/``.

This file imports neither numpy nor wate: every measurement happens in a
fresh child process (``workloads.py``), so its peak memory and set-up are
the workload's own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sim-grid", "boot-fit", "report-par")
SETUP_PROBES = 9
OUT_DIR = os.path.join(".bench_build", "perfbench")
# Whole run, including the set-up probes, must end well inside 180 s.
CHILD_TIMEOUT_S = 120
PROBE_TIMEOUT_S = 10


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # One BLAS thread per process: the pool is the only parallelism measured.
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def run_child(cmd: list[str], env: dict[str, str], timeout: float) -> str:
    """Run a child in its own process group and return its stdout; on a
    timeout the whole group (pool workers too) is killed and reaped."""
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd)} timed out after {timeout} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with code {proc.returncode}")
    return out


def last_json(out: str) -> dict[str, Any]:
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("child printed nothing")
    return json.loads(lines[-1])


def git_commit(root: str) -> str:
    """HEAD of the checkout, read without running git; the benchmark may run
    in a copy that is not a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def high_percentile(times: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75 with at least 10 samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(times) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(times, n=100)[q - 1]
    return None


def run_measure(args: argparse.Namespace, root: str, work: str, env: dict[str, str]) -> dict[str, Any]:
    child = last_json(run_child(
        [sys.executable, os.path.join(HERE, "workloads.py"), "measure",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--work-dir", work],
        env, CHILD_TIMEOUT_S,
    ))
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py")]
    probe += ["sim-grid"] if args.workload == "sim-grid" else ["csv", child["input_path"]]
    probes = [last_json(run_child(probe, env, PROBE_TIMEOUT_S)) for _ in range(SETUP_PROBES)]
    setups = [p["corrected"] for p in probes]

    times, corrected = child["times"], child["corrected_times"]
    wall, raw_wall = statistics.median(corrected), statistics.median(times)
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
    }
    attempted, failed = child["attempted"], child["failed"]
    print(f"perfbench {args.workload}: seed {args.seed} (input set {child['input_set']}), "
          f"{args.seconds} s closed loop, one client, untraced; times at nominal speed")
    tail = f"median of {len(times)} warm invocations"
    high = high_percentile(corrected)
    if high:
        tail += f", p{high[0]} {high[1]:.4f} s"
    print(f"  wall_s       {wall:.4f} s   {tail}")
    print(f"               raw median {raw_wall:.4f} s, "
          f"{1000 * raw_wall / child['replicates']:.2f} ms per replicate (not gated)")
    print(f"  setup_s      {metrics['setup_s']['value']:.4f} s   median of {SETUP_PROBES} "
          f"fresh interpreters; raw " + ", ".join(f"{p['raw']:.3f}" for p in probes))
    print(f"  peak_rss_mb  {child['peak_rss_mb']:.1f} MB  "
          f"largest pool worker {child['worker_peak_rss_mb']:.1f} MB")
    print(f"  failed_frac  {failed / attempted:.6g}     {failed} of {attempted} operations failed")
    if "serial_invocation_s" in child:
        print(f"  (one --workers 1 invocation took {child['serial_invocation_s']:.4f} s raw; not gated)")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": child["problems"],
        "samples": {"times": times, "corrected_times": corrected, "setup": probes},
        "peak_worker_rss_mb": child["worker_peak_rss_mb"],
        "serial_invocation_s": child.get("serial_invocation_s"),
        "replicates": child["replicates"],
        "input_set": child["input_set"],
        "conditions": child["conditions"],
    }


def run_trace(args: argparse.Namespace, root: str, work: str, env: dict[str, str]) -> dict[str, Any]:
    spans = os.path.join(root, OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
    child = last_json(run_child(
        [sys.executable, os.path.join(HERE, "workloads.py"), "trace",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--work-dir", work, "--spans", spans],
        env, CHILD_TIMEOUT_S,
    ))
    metrics = child["metrics"]
    print(f"perfbench {args.workload}: seed {args.seed} (input set {child['input_set']}), "
          f"traced run, one worker; {len(child['traced_times'])} traced and "
          f"{len(child['untraced_times'])} untraced invocations, {child['spans']} spans")
    print(f"  spans written to {os.path.relpath(spans, root)}")
    for name in sorted(metrics):
        m = metrics[name]
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    exact = ("models.predict_outcome.per_fit", "counts.estimate_per_replicate",
             "counts.fits_per_replicate", "models.fit_propensity.newton_iters")
    print("  exact counts: " + ", ".join(f"{k} = {metrics[k]['value']:g}" for k in exact))
    return {
        "metrics": metrics,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "problems": child["problems"],
        "samples": {"untraced": child["untraced_times"], "traced": child["traced_times"]},
        "replicates": child["replicates"],
        "input_set": child["input_set"],
        "conditions": child["conditions"],
    }


def run_one(args: argparse.Namespace, root: str) -> dict[str, Any]:
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    work = os.path.join(root, OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env = child_env(root)
    try:
        runner = run_trace if args.trace else run_measure
        result = runner(args, root, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in result["problems"]:
        print(f"  check failed: {problem}")
    result["conditions"].update({
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "input_set": result["input_set"],
        "replicates_per_invocation": result["replicates"],
    })
    print("conditions: " + json.dumps(result["conditions"], sort_keys=True))
    path = os.path.join(root, OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{int(args.trace)}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="wate benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wate", "__init__.py")):
        print("error: run from the root of a wate checkout (src/wate not found)", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    results = {}
    try:
        for workload in workloads:
            for trace in traces:
                one = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
                results[(workload, trace)] = run_one(one, root)
                if len(workloads) * len(traces) > 1:
                    print(json.dumps(results[(workload, trace)]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{name}": m
                for (w, _), r in results.items()
                for name, m in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
