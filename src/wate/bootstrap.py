"""Pairs bootstrap with full pipeline refitting.

Every replicate resamples rows with replacement, refits every model in the
pipeline from scratch and recomputes the statistic. Replicates where any fit
fails (a resample can easily lose one arm or go rank deficient) are dropped
and counted; if more than ``max_failed_fraction`` fail the run aborts,
because a standard error from the survivors would be misleading.

Replicate i draws its indices from a dedicated random stream keyed by
``(seed, i)``, so results are identical for any worker count or scheduling
order. :func:`parallel_map`, which spreads replicates over processes, is
shared with the Monte Carlo study. On Linux it forks its workers, so only
the results must pickle; elsewhere the statistic must pickle too.
"""

from __future__ import annotations

import os
import pickle
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, TypeVar

import numpy as np
from numpy.typing import NDArray

from .data import ObservationalDataset
from .errors import BootstrapError, FitFailure, WateError, WorkerError
from .estimators import EstimationPipeline, PointEstimate, cell_values, fill_cells, plan_cells

T = TypeVar("T")


def run_pipeline(ds: ObservationalDataset, pipeline: EstimationPipeline) -> PointEstimate:
    """Fit the models the pipeline declares, then estimate; a failed fit
    raises what the fitter raised."""
    result = fill_cells(ds, [pipeline])[0]
    if isinstance(result, FitFailure):
        raise result.error
    if isinstance(result, WateError):
        raise result
    return result


@dataclass(frozen=True, eq=False)
class BootstrapSamples:
    """Raw replicate values: shape (b, n_out); a failed replicate is a row of
    NaN, a per-entry failure inside an otherwise fine replicate is a single
    NaN."""

    values: NDArray[np.float64]
    n_failed: int

    @property
    def b(self) -> int:
        return self.values.shape[0]


def _replicate_indices(seed: int, i: int, n: int) -> NDArray[np.intp]:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
    return rng.integers(0, n, size=n)


def _map_range(fn: Callable[[int], T], indices: range) -> list[T]:
    return [fn(i) for i in indices]


# Fork the workers of parallel_map directly. The stdlib pool forks them on
# Linux too, but it is slower to start and costs every `import wate` the
# multiprocessing modules; other platforms keep it, since they may not fork.
_FORK = sys.platform == "linux"


def _chunks(count: int, parts: int) -> list[range]:
    bounds = np.linspace(0, count, parts + 1).astype(int)
    return [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def parallel_map(fn: Callable[[int], T], count: int, workers: int) -> list[T]:
    """``[fn(i) for i in range(count)]``, over ``workers`` processes in total
    when that is more than one.

    Indices are split into contiguous chunks and results come back in index
    order, so the output never depends on ``workers``. On Linux there is one
    chunk per process: the calling process runs the first and forks one
    child for each of the others, so only the results must pickle. Elsewhere
    a process pool runs four chunks per worker while the caller waits, and
    ``fn`` must be picklable too (a module-level function, a
    ``functools.partial`` of one, or a frozen dataclass with ``__call__``).
    An exception ``fn`` raises in a worker is raised again here; a worker
    that exits without sending its results raises :class:`WorkerError`.
    """
    if workers <= 1 or count <= 1:
        return _map_range(fn, range(count))
    if _FORK:
        return _fork_map(fn, _chunks(count, min(workers, count)))
    from concurrent.futures import ProcessPoolExecutor

    chunks = _chunks(count, min(workers * 4, count))
    with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        futures = [pool.submit(_map_range, fn, chunk) for chunk in chunks]
        return [value for future in futures for value in future.result()]


def _fork_map(fn: Callable[[int], T], chunks: list[range]) -> list[T]:
    pids: list[int] = []
    pipes: list[int] = []
    try:
        for chunk in chunks[1:]:
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(fn, chunk, write_end, pipes)
            finally:
                os.close(write_end)
            pids.append(pid)
        results = _map_range(fn, chunks[0])
        payloads = []
        for read_end in pipes:
            with open(read_end, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        # A child still writing gets EPIPE once its pipe is closed, so every
        # wait ends, also when the caller's own chunk raised.
        for read_end in pipes:
            os.close(read_end)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for k, (payload, status) in enumerate(zip(payloads, statuses), start=1):
        try:
            ok, value = pickle.loads(payload)
        except Exception:  # nothing, a truncated payload or one that does not load
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            chunk = chunks[k]
            raise WorkerError(
                f"parallel map worker for chunk {k} (items {chunk.start} to "
                f"{chunk.stop - 1}) exited without its results ({how})"
            ) from None
        if not ok:
            raise value
        results.extend(value)
    return results


def _run_child(
    fn: Callable[[int], T], chunk: range, write_end: int, inherited: list[int]
) -> None:
    """Body of a forked worker: run the chunk, pickle ``(ok, results or
    exception)`` to the pipe and leave without running exit handlers or
    flushing the stdio buffers copied from the parent."""
    status = 1
    try:
        for read_end in inherited:
            os.close(read_end)
        try:
            payload = (True, _map_range(fn, chunk))
        except Exception as exc:
            payload = (False, exc)
        with open(write_end, "wb", closefd=False) as pipe:
            pipe.write(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _replicate(
    ds: ObservationalDataset,
    statistic: Callable[[ObservationalDataset], NDArray[np.float64]],
    n_out: int,
    seed: int,
    i: int,
) -> NDArray[np.float64]:
    idx = _replicate_indices(seed, i, ds.n)
    try:
        row = np.asarray(statistic(ds.replace_rows(idx)), dtype=np.float64).ravel()
    except WateError:
        return np.full(n_out, np.nan)
    if row.shape[0] != n_out:
        raise BootstrapError(f"statistic returned length {row.shape[0]}, expected {n_out}")
    return row


def bootstrap_vector(
    ds: ObservationalDataset,
    statistic: Callable[[ObservationalDataset], NDArray[np.float64]],
    n_out: int,
    b: int = 1000,
    seed: int = 0,
    workers: int = 1,
    max_failed_fraction: float = 0.2,
) -> BootstrapSamples:
    """Evaluate a vector statistic on ``b`` bootstrap resamples, over
    ``workers`` processes in total.

    With ``workers > 1`` the statistic's results must pickle; off Linux the
    statistic itself must pickle too (a module-level function, or a frozen
    dataclass with ``__call__``). Output is invariant to ``workers``.
    """
    if b < 2:
        raise ValueError(f"need at least 2 replicates, got {b}")
    rows = parallel_map(partial(_replicate, ds, statistic, n_out, seed), b, workers)
    values = np.array(rows)
    n_failed = int(np.sum(np.all(np.isnan(values), axis=1))) if n_out else 0
    if n_failed > max_failed_fraction * b:
        raise BootstrapError(
            f"{n_failed} of {b} bootstrap replicates failed "
            f"(limit {max_failed_fraction:.0%}); refusing to report standard errors"
        )
    return BootstrapSamples(values=values, n_failed=n_failed)


@dataclass(frozen=True, eq=False)
class BootstrapResult:
    """Point estimate plus bootstrap spread.

    ``se`` is the sample standard deviation (ddof=1) of the surviving
    replicate values. ``ci_lower``/``ci_upper`` are plain percentile bounds
    at the requested level; they are a convenience on top of the standard
    error, not a separately calibrated interval.
    """

    point: PointEstimate
    se: float
    b: int
    b_ok: int
    replicate_values: NDArray[np.float64]
    seed: int
    ci_level: float
    ci_lower: float
    ci_upper: float


def bootstrap_se(
    ds: ObservationalDataset,
    pipeline: EstimationPipeline,
    b: int = 1000,
    seed: int = 0,
    workers: int = 1,
    ci_level: float = 0.95,
    max_failed_fraction: float = 0.2,
) -> BootstrapResult:
    """Standard error for one pipeline by the pairs bootstrap.

    The full-data point estimate is computed first and any failure there is
    raised as is: if the pipeline cannot run on the original data, a
    bootstrap around it has no meaning.
    """
    point = run_pipeline(ds, pipeline)
    samples = bootstrap_vector(
        ds,
        partial(cell_values, plan=plan_cells([pipeline])),
        n_out=1,
        b=b,
        seed=seed,
        workers=workers,
        max_failed_fraction=max_failed_fraction,
    )
    vals = samples.values[:, 0]
    ok = vals[np.isfinite(vals)]
    if ok.shape[0] < 2:
        raise BootstrapError("fewer than 2 successful replicates")
    se = float(np.std(ok, ddof=1))
    alpha = 100.0 * (1.0 - ci_level) / 2.0
    lo, hi = np.percentile(ok, [alpha, 100.0 - alpha])
    return BootstrapResult(
        point=point,
        se=se,
        b=b,
        b_ok=int(ok.shape[0]),
        replicate_values=vals,
        seed=seed,
        ci_level=ci_level,
        ci_lower=float(lo),
        ci_upper=float(hi),
    )
