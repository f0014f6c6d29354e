"""Pairs bootstrap with full pipeline refitting.

:func:`bootstrap_vector` resamples the cells of a
:class:`~wate.estimators.CellPlan`: every replicate resamples rows with
replacement, refits every working model of the plan from scratch and fills
every cell by the pass :func:`~wate.estimators.fill_cells` makes, keeping
only the values. A cell whose fit or estimate fails on a resample is NaN in
that replicate (a resample can easily lose one arm or go rank deficient);
:func:`bootstrap_vector` never raises for that. :func:`cell_se` is the one
failure policy: a cell whose values failed in more than
``MAX_FAILED_FRACTION`` (20%) of the replicates gets no standard error,
because one from the survivors would be misleading. The ``estimate`` report
applies it to each of its cells; :func:`bootstrap_se` applies it to its one
pipeline, raises :class:`BootstrapError` past the limit and otherwise adds a
``CI_LEVEL`` (95%) percentile interval.

Replicate i draws its indices from a dedicated random stream keyed by
``(seed, i)``, so results are identical for any worker count or scheduling
order. ``_map_stacks``, the one parallel map, splits the replicates into
one contiguous chunk per process, the caller's first, by the same rule on
every platform, and each process fills its chunk in stacks of the fewest
consecutive replicates that hold at least ``_BATCH_ROWS`` = 12288 rows
(``max(1, ceil(12288 / n))``, from :mod:`wate.data`: 12288 to 24575 rows up
to n = 12288, threes at n = 5000, one replicate above n = 12288), the last one
shorter: the rows of a stack are gathered by one ``numpy.take`` per array
over its (b, n) index stack into a :class:`~wate.data._Stack`, each design
is evaluated once on it, each working model of the plan is fitted on it at
once (see :mod:`wate.models`) and the cells are filled by one pass over it
(see :mod:`wate.estimators`), which gives each replicate the bits it gets
alone, so neither the chunks nor the stacks change a result. The Monte Carlo
study shares this map. On Linux it forks its workers, so only the results
must pickle; elsewhere a process pool runs them and the plan must pickle
too.
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

from .data import _BATCH_ROWS, ObservationalDataset, _Stack, _replicate_rng, _stack_size
from .errors import BootstrapError, FitFailure, WateError, WorkerError
from .estimators import (
    CellPlan,
    EstimationPipeline,
    PointEstimate,
    _cell_value_rows,
    fill_cells,
    plan_cells,
)

T = TypeVar("T")

MAX_FAILED_FRACTION = 0.2
CI_LEVEL = 0.95


def _replicate_indices(seed: int, i: int, n: int) -> NDArray[np.intp]:
    return _replicate_rng(seed, i).integers(0, n, size=n)


def _map_stacks(fn: Callable[[range], list[T]], count: int, n: int, workers: int) -> list[T]:
    """``fn(range(count))``, over ``workers`` processes in total when that is
    more than one, where ``fn`` gives one result per index of its range and
    ``n`` is the rows of each replicate.

    Indices are split into one contiguous chunk per process and results
    come back in index order, so the output never depends on ``workers``.
    Each process calls ``fn`` on its chunk in stacks of
    ``_stack_size(_BATCH_ROWS, n)`` consecutive indices, the last one
    shorter. The calling process runs the first chunk. On Linux it forks one
    child for each of the others, so only the results must pickle; a worker
    that cannot be forked, or exits without sending its results, raises
    :class:`WorkerError`. Elsewhere a process pool of one worker per other
    chunk runs them, and ``fn`` must be picklable too (a module-level
    function or a ``functools.partial`` of one). An exception ``fn`` raises
    in a worker is raised again here.
    """
    run = partial(_stacks, fn, _stack_size(_BATCH_ROWS, n))
    if workers <= 1 or count <= 1:
        return run(range(count))
    chunks = _chunks(count, min(workers, count))
    if _FORK:
        return _fork_map(run, chunks)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(chunks) - 1) as pool:
        futures = [pool.submit(run, chunk) for chunk in chunks[1:]]
        results = run(chunks[0])
        for future in futures:
            results.extend(future.result())
    return results


def _stacks(fn: Callable[[range], list[T]], size: int, chunk: range) -> list[T]:
    return [
        result
        for start in range(chunk.start, chunk.stop, size)
        for result in fn(range(start, min(chunk.stop, start + size)))
    ]


# Fork the workers of _map_stacks directly. The stdlib pool forks them on
# Linux too, but it is slower to start and costs every `import wate` the
# multiprocessing modules; other platforms keep it, since they may not fork.
_FORK = sys.platform == "linux"


def _chunks(count: int, parts: int) -> list[range]:
    bounds = np.linspace(0, count, parts + 1).astype(int)
    return [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _fork_map(run: Callable[[range], list[T]], chunks: list[range]) -> list[T]:
    pids: list[int] = []
    pipes: list[int] = []
    try:
        for k, chunk in enumerate(chunks[1:], start=1):
            try:
                read_end, write_end = os.pipe()
                pipes.append(read_end)
                try:
                    pid = os.fork()
                    if pid == 0:
                        _run_child(run, chunk, write_end, pipes)
                finally:
                    os.close(write_end)
            except OSError as exc:
                raise WorkerError(
                    f"parallel map could not start the worker for {_chunk_label(k, chunk)}: {exc}"
                ) from None
            pids.append(pid)
        results = run(chunks[0])
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
            raise WorkerError(
                f"parallel map worker for {_chunk_label(k, chunks[k])} exited "
                f"without its results ({how})"
            ) from None
        if not ok:
            raise value
        results.extend(value)
    return results


def _chunk_label(k: int, chunk: range) -> str:
    return f"chunk {k} (items {chunk.start} to {chunk.stop - 1})"


def _run_child(
    run: Callable[[range], list[T]], chunk: range, write_end: int, inherited: list[int]
) -> None:
    """Body of a forked worker: run the chunk, pickle ``(ok, results or
    exception)`` to the pipe and leave without running exit handlers or
    flushing the stdio buffers copied from the parent."""
    status = 1
    try:
        for read_end in inherited:
            os.close(read_end)
        try:
            payload = (True, run(chunk))
        except Exception as exc:
            payload = (False, exc)
        with open(write_end, "wb", closefd=False) as pipe:
            pipe.write(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _replicates(
    ds: ObservationalDataset, plan: CellPlan, seed: int, indices: range
) -> list[NDArray[np.float64]]:
    idx = np.array([_replicate_indices(seed, i, ds.n) for i in indices])
    return _cell_value_rows(_Stack.gather(ds, idx), plan)


def bootstrap_vector(
    ds: ObservationalDataset,
    plan: CellPlan,
    b: int = 1000,
    seed: int = 0,
    workers: int = 1,
) -> NDArray[np.float64]:
    """The values of every cell of ``plan`` on ``b`` bootstrap resamples,
    over ``workers`` processes in total: shape (b, number of cells), column j
    holds pipeline j, NaN where it failed on a resample.

    Off Linux, ``workers > 1`` needs a picklable plan: a covariate target's
    function must then be a module-level function or a frozen dataclass with
    ``__call__``. Output is invariant to ``workers``.
    """
    if b < 2:
        raise ValueError(f"need at least 2 replicates, got {b}")
    return np.array(_map_stacks(partial(_replicates, ds, plan, seed), b, ds.n, workers))


def cell_se(column: NDArray[np.float64]) -> tuple[float, int, str]:
    """``(se, b_ok, note)`` for one cell from its replicate values: the
    sample standard deviation (ddof=1) of the ``b_ok`` finite values and an
    empty note, or NaN and a note when more than ``MAX_FAILED_FRACTION`` of
    the replicates failed or the standard deviation overflows. With at least
    2 replicates, a cell within the limit always has 2 finite values."""
    b = column.shape[0]
    ok = column[np.isfinite(column)]
    failed = b - ok.shape[0]
    if failed > MAX_FAILED_FRACTION * b:
        note = (
            f"{failed} of {b} bootstrap replicates failed (limit "
            f"{MAX_FAILED_FRACTION:.0%})"
        )
        return np.nan, ok.shape[0], note
    with np.errstate(over="ignore", invalid="ignore"):
        se = float(np.std(ok, ddof=1))
    if not np.isfinite(se):
        return np.nan, ok.shape[0], "the standard deviation of the bootstrap replicates overflows"
    return se, ok.shape[0], ""


@dataclass(frozen=True, eq=False)
class BootstrapResult:
    """Point estimate plus bootstrap spread.

    ``se`` is the sample standard deviation (ddof=1) of the surviving
    replicate values. ``ci_lower``/``ci_upper`` are plain percentile bounds
    at the ``CI_LEVEL`` (95%) level; they are a convenience on top of the
    standard error, not a separately calibrated interval.
    """

    point: PointEstimate
    se: float
    b_ok: int
    replicate_values: NDArray[np.float64]
    ci_lower: float
    ci_upper: float


def bootstrap_se(
    ds: ObservationalDataset,
    pipeline: EstimationPipeline,
    b: int = 1000,
    seed: int = 0,
    workers: int = 1,
) -> BootstrapResult:
    """Standard error for one pipeline by the pairs bootstrap.

    The full-data point estimate is computed first and any failure there is
    raised as is (a failed fit as what the fitter raised): if the pipeline
    cannot run on the original data, a bootstrap around it has no meaning.
    Past the failure limit of :func:`cell_se` it raises
    :class:`BootstrapError`.
    """
    plan = plan_cells([pipeline])
    point = fill_cells(ds, plan)[0]
    if isinstance(point, FitFailure):
        raise point.error
    if isinstance(point, WateError):
        raise point
    vals = bootstrap_vector(ds, plan, b=b, seed=seed, workers=workers)[:, 0]
    se, b_ok, note = cell_se(vals)
    if note:
        raise BootstrapError(note + "; refusing to report standard errors")
    alpha = 100.0 * (1.0 - CI_LEVEL) / 2.0
    lo, hi = np.percentile(vals[np.isfinite(vals)], [alpha, 100.0 - alpha])
    return BootstrapResult(
        point=point,
        se=se,
        b_ok=b_ok,
        replicate_values=vals,
        ci_lower=float(lo),
        ci_upper=float(hi),
    )
