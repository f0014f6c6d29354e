"""Pairs bootstrap with full pipeline refitting.

Every replicate resamples rows with replacement, refits every model in the
pipeline from scratch and recomputes the statistic. Replicates where any fit
fails (a resample can easily lose one arm or go rank deficient) are dropped
and counted; if more than ``max_failed_fraction`` fail the run aborts,
because a standard error from the survivors would be misleading.

Replicate i draws its indices from a dedicated random stream keyed by
``(seed, i)``, so results are identical for any worker count or scheduling
order. :func:`parallel_map`, which spreads replicates over processes, is
shared with the Monte Carlo study.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, TypeVar

import numpy as np
from numpy.typing import NDArray

from .data import ObservationalDataset
from .errors import BootstrapError, FitFailure, WateError
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


def parallel_map(fn: Callable[[int], T], count: int, workers: int) -> list[T]:
    """``[fn(i) for i in range(count)]``, over ``workers`` processes when
    that is more than one.

    Indices go out in contiguous chunks, four per worker to even out uneven
    work, and results come back in index order, so the output never depends
    on ``workers``. The pool starts no more processes than there are chunks.
    ``fn`` must be picklable when ``workers > 1`` (a module-level function,
    a ``functools.partial`` of one, or a frozen dataclass with
    ``__call__``).
    """
    if workers <= 1 or count == 0:
        return _map_range(fn, range(count))
    bounds = np.linspace(0, count, min(workers * 4, count) + 1).astype(int)
    chunks = [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        futures = [pool.submit(_map_range, fn, chunk) for chunk in chunks]
        return [value for future in futures for value in future.result()]


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
        if row.shape[0] != n_out:
            raise BootstrapError(
                f"statistic returned length {row.shape[0]}, expected {n_out}"
            )
    except WateError:
        row = np.full(n_out, np.nan)
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
    """Evaluate a vector statistic on ``b`` bootstrap resamples.

    ``statistic`` must be picklable when ``workers > 1`` (a module-level
    function, or a frozen dataclass with ``__call__``). Output is invariant
    to ``workers``.
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
