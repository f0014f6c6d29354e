import errno
import os
import subprocess
import sys

import numpy as np
import pytest

import wate
import wate.bootstrap
from wate.bootstrap import (
    EstimationPipeline,
    _chunks,
    _map_stacks,
    bootstrap_se,
    bootstrap_vector,
    cell_se,
)
from wate.data import _BATCH_ROWS
from wate.errors import BootstrapError, DataError, WorkerError
from wate.estimators import EstimatorKind, fill_cells, plan_cells
from wate.simulation import generate_dataset, outcome_design, propensity_design


# The fork path of the parallel map, _map_stacks: the caller runs the first
# chunk, children may exit with a status, and fn need not pickle. Other
# platforms use the stdlib pool.
linux_only = pytest.mark.skipif(sys.platform != "linux", reason="_map_stacks forks on Linux")


def aipw_pipeline(outcome_model=2, truncate=None):
    main, inter = outcome_design(True, outcome_model)
    return EstimationPipeline(
        estimand=wate.average_effect(),
        kind=EstimatorKind.AIPW,
        pi_design=propensity_design(True),
        m_design=main,
        m_interaction=inter,
        truncate=truncate,
    )


def run_pipeline(ds, pipe):
    """The full-data point estimate of one pipeline."""
    return fill_cells(ds, [pipe])[0]


@pytest.fixture(scope="module")
def ds400():
    return generate_dataset(2, 400, np.random.default_rng(99)).observed()


def test_run_pipeline_matches_manual_fit(ds400):
    pipe = aipw_pipeline()
    got = run_pipeline(ds400, pipe)
    pm = wate.fit_propensity(ds400, pipe.pi_design)
    om = wate.fit_outcome(ds400, pipe.m_design, pipe.m_interaction)
    (manual,) = wate.fill_cells(
        ds400,
        [EstimationPipeline(wate.average_effect(), EstimatorKind.AIPW)],
        pi=wate.predict_propensity(pm, ds400.X),
        m1=wate.predict_outcome(om, ds400.X, 1),
        m0=wate.predict_outcome(om, ds400.X, 0),
    )
    assert got.value == pytest.approx(manual.value, rel=1e-14)


def test_truncation_flows_through_pipeline(ds400):
    plain = run_pipeline(ds400, aipw_pipeline()).value
    trunc = run_pipeline(ds400, aipw_pipeline(truncate=(10, 90))).value
    assert trunc != plain
    # And truncating at (0, 100) only clips to the observed range, which
    # changes nothing.
    noop = run_pipeline(ds400, aipw_pipeline(truncate=(0, 100))).value
    assert noop == pytest.approx(plain, rel=1e-14)


def test_constant_outcome_gives_zero_se():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 2))
    A = (np.arange(60) % 2).astype(float)
    ds = wate.ObservationalDataset(X=X, A=A, Y=np.full(60, 2.0))
    pipe = EstimationPipeline(
        estimand=wate.average_effect(),
        kind=EstimatorKind.REGRESSION,
        m_design=wate.main_effects(ds.covariate_names),
    )
    res = bootstrap_se(ds, pipe, b=60, seed=1)
    assert res.se == pytest.approx(0.0, abs=1e-12)
    assert res.point.value == pytest.approx(0.0, abs=1e-10)


def test_same_seed_reproduces_everything(ds400):
    pipe = aipw_pipeline()
    r1 = bootstrap_se(ds400, pipe, b=40, seed=123)
    r2 = bootstrap_se(ds400, pipe, b=40, seed=123)
    assert r1.se == r2.se
    np.testing.assert_array_equal(r1.replicate_values, r2.replicate_values)
    r3 = bootstrap_se(ds400, pipe, b=40, seed=124)
    assert r3.se != r1.se


def test_worker_count_does_not_change_results(ds400):
    pipe = aipw_pipeline()
    r1 = bootstrap_se(ds400, pipe, b=32, seed=9, workers=1)
    r2 = bootstrap_se(ds400, pipe, b=32, seed=9, workers=3)
    np.testing.assert_array_equal(r1.replicate_values, r2.replicate_values)
    assert r1.se == r2.se


def _hexes(indices):
    # Module level, so the pool kept for platforms that do not fork can
    # pickle it.
    return [hex(i) for i in indices]


def _pids(indices):
    return [(os.getpid(), len(indices)) for _ in indices]


@linux_only
@pytest.mark.parametrize(
    "count, workers, pool_sizes",
    [(10, 500, [10]), (100, 3, [3]), (1, 2, [1]), (0, 4, [])],
)
def test_parallel_map_starts_no_more_workers_than_chunks(
    monkeypatch, count, workers, pool_sizes
):
    # Replicates of _BATCH_ROWS rows make stacks of one index. A pool size
    # counts the processes that ran fn, the caller included: it runs the
    # first chunk, and runs everything itself when count <= 1. So does the
    # caller on the pool kept for platforms that do not fork, whose workers
    # may share out the other chunks among fewer processes.
    expected = [hex(i) for i in range(count)]
    first = len(_chunks(count, min(workers, count))[0]) if count else 0
    for fork in (True, False):
        monkeypatch.setattr(wate.bootstrap, "_FORK", fork)
        runs = _map_stacks(_pids, count, _BATCH_ROWS, workers)
        pids = [pid for pid, _ in runs]
        distinct = [len(set(pids))] if pids else []
        assert distinct == pool_sizes if fork else distinct <= pool_sizes
        assert [pid == os.getpid() for pid in pids] == [i < first for i in range(count)]
        assert all(size == 1 for _, size in runs)
        assert _map_stacks(_hexes, count, _BATCH_ROWS, workers) == expected


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raise_in_last_chunk(indices):
    if 9 in indices:
        raise KeyError("boom")
    return list(indices)


def _exit_in_last_chunk(indices):
    if 9 in indices:
        os._exit(3)
    return list(indices)


def test_parallel_map_reraises_a_workers_exception():
    with pytest.raises(KeyError, match="boom"):
        _map_stacks(_raise_in_last_chunk, 10, _BATCH_ROWS, 2)
    _assert_no_child_left()


@linux_only
def test_parallel_map_reports_a_worker_that_exits_without_results():
    with pytest.raises(WorkerError, match=r"chunk 1 .*exit status 3"):
        _map_stacks(_exit_in_last_chunk, 10, _BATCH_ROWS, 2)
    _assert_no_child_left()


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@linux_only
def test_parallel_map_reports_a_worker_it_could_not_start(monkeypatch):
    # The second fork fails as it does at the process limit; the one child
    # that was forked is reaped and every pipe is closed.
    real_fork, calls = os.fork, []

    def fork():
        calls.append(None)
        if len(calls) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    before = _open_descriptors()
    monkeypatch.setattr(os, "fork", fork)
    match = r"could not start the worker for chunk 2 \(items 6 to 8\)"
    with pytest.raises(WorkerError, match=match):
        _map_stacks(list, 9, _BATCH_ROWS, 3)
    assert len(calls) == 2
    _assert_no_child_left()
    assert _open_descriptors() == before


@linux_only
def test_parallel_map_returns_results_larger_than_a_pipe_buffer():
    rows = _map_stacks(
        lambda indices: [np.full(3000, float(i)) for i in indices], 60, _BATCH_ROWS, 3
    )
    np.testing.assert_array_equal(np.array(rows), np.arange(60.0)[:, None] * np.ones(3000))
    _assert_no_child_left()


@linux_only
def test_import_wate_loads_no_pool_modules():
    probe = (
        "import sys, wate; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_se_recomputable_from_replicates(ds400):
    pipe = aipw_pipeline()
    res = bootstrap_se(ds400, pipe, b=50, seed=3)
    ok = res.replicate_values[np.isfinite(res.replicate_values)]
    assert res.b_ok == ok.shape[0]
    assert res.se == pytest.approx(float(np.std(ok, ddof=1)), rel=1e-14)
    assert res.ci_lower <= res.point.value <= res.ci_upper


def test_failed_replicates_are_dropped_and_counted():
    # Nine observations with three treated: resamples frequently lose an
    # arm or go rank deficient, so some replicates must fail.
    rng = np.random.default_rng(17)
    X = rng.normal(size=(9, 1))
    A = np.array([1.0, 1, 1, 0, 0, 0, 0, 0, 0])
    Y = rng.normal(size=9)
    ds = wate.ObservationalDataset(X=X, A=A, Y=Y)
    pipe = EstimationPipeline(
        estimand=wate.average_effect(),
        kind=EstimatorKind.IPW_NORMALIZED,
        pi_design=wate.main_effects(ds.covariate_names),
    )
    samples = bootstrap_vector(ds, plan_cells([pipe]), b=200, seed=2)
    assert samples.shape == (200, 1)
    finite = np.isfinite(samples[:, 0])
    assert 0 < finite.sum() < 200
    assert np.all(np.isnan(samples[~finite, 0]))
    # Far more than a fifth fail, so the cell gets no standard error.
    se, b_ok, note = cell_se(samples[:, 0])
    assert b_ok == finite.sum()
    assert np.isnan(se)
    assert note == f"{200 - b_ok} of 200 bootstrap replicates failed (limit 20%)"


def test_too_many_failures_abort():
    # Only two treated rows: the full-data fit just works (two residual
    # degrees of freedom), but any resample that keeps fewer than two
    # distinct treated rows is rank deficient, which happens to well over a
    # fifth of them.
    X = np.arange(6.0).reshape(6, 1)
    ds = wate.ObservationalDataset(
        X=X,
        A=np.array([1.0, 1, 0, 0, 0, 0]),
        Y=np.array([1.0, 2, 3, 4, 2, 1]),
    )
    pipe = EstimationPipeline(
        estimand=wate.average_effect(),
        kind=EstimatorKind.REGRESSION,
        m_design=wate.main_effects(ds.covariate_names),
    )
    assert np.isfinite(run_pipeline(ds, pipe).value)
    with pytest.raises(BootstrapError, match="refusing"):
        bootstrap_se(ds, pipe, b=100, seed=0)


def test_bootstrap_se_calibration():
    # The bootstrap SE estimates the sampling SD of the estimator. Calibrate
    # on the overlap-population statistic, whose weights are bounded by one:
    # inverse-probability statistics have dataset-to-dataset SE swings far
    # beyond the resampling noise, which would turn this into a seed lottery.
    # One dataset's SE still scatters around the truth by ~10%, so compare
    # the average over several datasets tightly and each one loosely.
    main, inter = outcome_design(True, 2)
    pipe = EstimationPipeline(
        estimand=wate.overlap_effect(),
        kind=EstimatorKind.AIPW,
        pi_design=propensity_design(True),
        m_design=main,
        m_interaction=inter,
    )
    vals = []
    for rep in range(400):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=555, spawn_key=(rep,)))
        vals.append(run_pipeline(generate_dataset(2, 400, rng), pipe).value)
    true_sd = float(np.std(vals, ddof=1))

    ratios = []
    for ds_seed in range(8):
        rng = np.random.default_rng(1000 + ds_seed)
        ds = generate_dataset(2, 400, rng)
        res = bootstrap_se(ds, pipe, b=200, seed=7)
        ratios.append(res.se / true_sd)
    for r in ratios:
        assert 0.65 < r < 1.35
    assert abs(np.mean(ratios) - 1.0) < 0.12


def test_rejects_too_few_replicates(ds400):
    with pytest.raises(ValueError):
        bootstrap_se(ds400, aipw_pipeline(), b=1, seed=0)


def test_refuses_a_dataset_with_no_rows_before_any_draw():
    # The stack size divides by n, so no rows is refused where the dataset
    # is built.
    with pytest.raises(DataError, match="at least one row"):
        wate.ObservationalDataset(X=np.zeros((0, 5)), A=np.zeros(0), Y=np.zeros(0))
