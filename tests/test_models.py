import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wate.bootstrap
import wate.models
from wate.data import ObservationalDataset
from wate.design import DesignSpec, TransformTerm, intercept_only, main_effects, parse_design
from wate.errors import ConvergenceError, ModelFitError, RankDeficiencyError
from wate.estimators import EstimationPipeline, EstimatorKind, fill_cells
from wate.models import (
    _keep_freed_heap,
    _sigmoid,
    fit_outcome,
    fit_propensity,
    predict_outcome,
    predict_propensity,
    truncate_propensity,
)
from wate.simulation import generate_dataset, outcome_design, propensity_design
from wate.targets import effect_on_treated


def make_ds(X, A, Y=None):
    if Y is None:
        Y = np.zeros(len(A))
    return ObservationalDataset(X=np.asarray(X, float), A=np.asarray(A, float), Y=np.asarray(Y, float))


# --- logistic regression -----------------------------------------------------


def test_intercept_only_recovers_logit_of_mean():
    ds = make_ds(np.zeros((8, 1)), [1, 1, 1, 0, 1, 1, 0, 1])
    model = fit_propensity(ds, intercept_only())
    assert model.converged
    assert model.alpha[0] == pytest.approx(math.log(0.75 / 0.25), abs=1e-6)
    pi = predict_propensity(model, ds.X)
    np.testing.assert_allclose(pi, 0.75, atol=1e-8)


def _grid_search_mle(x, a, rounds=5, steps=40):
    """Independent maximum likelihood oracle for a two-parameter logistic
    model: exhaustive grid search with shrinking windows. No derivatives,
    no linear algebra."""

    def loglik(b0, b1):
        total = 0.0
        for xi, ai in zip(x, a):
            eta = b0 + b1 * xi
            p = 1.0 / (1.0 + math.exp(-eta))
            p = min(max(p, 1e-12), 1 - 1e-12)
            total += ai * math.log(p) + (1 - ai) * math.log(1 - p)
        return total

    c0, c1, width = 0.0, 0.0, 4.0
    for _ in range(rounds):
        best = (-math.inf, c0, c1)
        for i in range(steps + 1):
            for j in range(steps + 1):
                b0 = c0 - width + 2 * width * i / steps
                b1 = c1 - width + 2 * width * j / steps
                ll = loglik(b0, b1)
                if ll > best[0]:
                    best = (ll, b0, b1)
        _, c0, c1 = best
        width = width * 2 / steps * 2  # keep a margin of two grid cells
    return c0, c1


GRID_X = [-1.5, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 1.5]
GRID_A = [0, 0, 1, 0, 1, 0, 1, 1]


def test_logistic_matches_grid_search_oracle():
    ds = make_ds(np.array(GRID_X)[:, None], GRID_A)
    model = fit_propensity(ds, main_effects(("x",)))
    b0, b1 = _grid_search_mle(GRID_X, GRID_A)
    assert model.alpha[0] == pytest.approx(b0, abs=1e-4)
    assert model.alpha[1] == pytest.approx(b1, abs=1e-4)


def test_grid_oracle_likelihood_not_above_fit():
    ds = make_ds(np.array(GRID_X)[:, None], GRID_A)
    model = fit_propensity(ds, main_effects(("x",)))
    b0, b1 = _grid_search_mle(GRID_X, GRID_A)
    eta = b0 + b1 * np.array(GRID_X)
    p = 1 / (1 + np.exp(-eta))
    oracle_ll = float(np.sum(np.array(GRID_A) * np.log(p) + (1 - np.array(GRID_A)) * np.log(1 - p)))
    assert model.log_likelihood >= oracle_ll - 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_score_vanishes_at_solution(seed):
    rng = np.random.default_rng(seed)
    n = 300
    X = rng.normal(size=(n, 3))
    eta = 0.3 + X @ np.array([0.8, -0.5, 0.2])
    A = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
    ds = make_ds(X, A)
    model = fit_propensity(ds, main_effects(("x1", "x2", "x3")))
    M = np.column_stack([np.ones(n), X])
    p = predict_propensity(model, X)
    score = M.T @ (A - p)
    assert np.max(np.abs(score)) < 1e-8


def test_predictions_are_clamped():
    ds = make_ds(np.zeros((6, 1)), [0, 1, 0, 1, 0, 1])
    model = fit_propensity(ds, intercept_only())
    big = np.array([[0.0]])
    # Push the linear predictor far out by hand.
    forced = type(model)(
        alpha=np.array([80.0]),
        design=model.design,
        converged=True,
        iterations=0,
        log_likelihood=0.0,
    )
    p = predict_propensity(forced, big)
    assert 0.0 < p[0] < 1.0
    assert p[0] <= 1.0 - 1e-12


def test_separated_data_raises_with_last_iterate(monkeypatch):
    x = np.linspace(-2, 2, 12)
    a = (x > 0).astype(float)
    ds = make_ds(x[:, None], a)
    monkeypatch.setattr(wate.models, "MAX_ITER", 25)
    with pytest.raises(ConvergenceError) as err:
        fit_propensity(ds, main_effects(("x",)))
    assert err.value.model is not None
    assert not err.value.model.converged
    # The slope runs off toward infinity; the attached iterate shows that.
    assert abs(err.value.model.alpha[1]) > 10.0


def test_tiny_max_iter_raises(monkeypatch):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(200, 2))
    eta = X @ np.array([1.0, -1.0])
    A = (rng.random(200) < 1 / (1 + np.exp(-eta))).astype(float)
    ds = make_ds(X, A)
    monkeypatch.setattr(wate.models, "MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as err:
        fit_propensity(ds, main_effects(("x1", "x2")))
    assert err.value.model.iterations == 1


def test_a_large_resample_converges_in_a_few_updates():
    # Resample 15 (bootstrap seed 0) of a model-1 draw at n = 10^5 reaches
    # max |score| ~ 2e-6 after 4 updates, where its log likelihood is about
    # -61493 and one rounding of it, 7.3e-12, passes a fixed halving slack of
    # 1e-12: every later step was refused until MAX_ITER updates and a
    # ConvergenceError. A slack of 2 ulp(ll) lets it converge in 5.
    ds = generate_dataset(1, 10**5, np.random.default_rng(0)).observed()
    idx = wate.bootstrap._replicate_indices(0, 15, ds.n)
    resample = ObservationalDataset(ds.X[idx], ds.A[idx], ds.Y[idx], ds.covariate_names)
    pm = fit_propensity(resample, main_effects(ds.covariate_names))
    assert pm.converged and pm.iterations <= 10
    assert math.ulp(pm.log_likelihood) > 1e-12


def test_rank_deficient_propensity_design():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 2))
    X[:, 1] = 2.0 * X[:, 0]
    ds = make_ds(X, rng.integers(0, 2, 30))
    with pytest.raises(RankDeficiencyError):
        fit_propensity(ds, main_effects(("x1", "x2")))


def test_generator_design_matches_direct_formula():
    ds = generate_dataset(1, 400, np.random.default_rng(5))
    model = fit_propensity(ds, propensity_design(True))
    pi = predict_propensity(model, ds.X)
    x = ds.X
    eta = (
        model.alpha[0]
        + model.alpha[1] * x[:, 0]
        + model.alpha[2] * x[:, 1] ** 2
        + model.alpha[3] * x[:, 2] * x[:, 4]
    )
    np.testing.assert_allclose(pi, 1 / (1 + np.exp(-eta)), rtol=1e-12)


def _piecewise_sigmoid(eta):
    """The logistic function as two masked branches, the form that never
    overflows: 1/(1 + e^-eta) where eta >= 0, e^eta/(1 + e^eta) elsewhere."""
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_SIGMOID_EDGES = [0.0, -0.0, 709.0, -709.0, 745.0, -745.0, 1e300, -1e300, np.inf, -np.inf]


@given(st.lists(st.floats(allow_nan=False, width=64), max_size=40))
def test_sigmoid_is_bitwise_the_piecewise_form_without_warnings(values):
    eta = np.array(values + _SIGMOID_EDGES, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _sigmoid(eta)
    expected = _piecewise_sigmoid(eta)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


# --- in-sample vectors -------------------------------------------------------


@pytest.fixture(scope="module")
def generated_dataset():
    return generate_dataset(1, 400, np.random.default_rng(5)).observed()


def _sin_x1(X):
    return np.sin(X[:, 0])


@pytest.mark.parametrize("truncate", [None, (1.0, 99.0)])
@pytest.mark.parametrize("correct", [True, False])
def test_propensity_fit_keeps_the_predicted_vector(generated_dataset, correct, truncate):
    ds = generated_dataset
    pm = fit_propensity(ds, propensity_design(correct))
    predicted = predict_propensity(pm, ds.X)
    assert np.array_equal(pm.pi, predicted)
    # The engine reads the fit's vector; the estimate equals the one made
    # from predictions, truncated the same way, to the last bit.
    pi = predicted if truncate is None else truncate_propensity(predicted, *truncate)
    pipeline = EstimationPipeline(
        estimand=effect_on_treated(), kind=EstimatorKind.IPW_NORMALIZED,
        pi_design=propensity_design(correct), truncate=truncate,
    )
    (filled,) = fill_cells(ds, [pipeline])
    bare = EstimationPipeline(pipeline.estimand, pipeline.kind)
    (supplied,) = fill_cells(ds, [bare], pi=pi)
    assert filled.value == supplied.value


_NAMES = ("x1", "x2", "x3", "x4", "x5")
_OUTCOME_SETUPS = {
    "main-equals-interaction": (main_effects(_NAMES), None),
    "correct-pair": outcome_design(True, 1),
    "transform-interaction": (
        parse_design("x2^2 + x3", _NAMES),
        DesignSpec(terms=(TransformTerm(name="sin(x1)", fn=_sin_x1),)),
    ),
    "intercept-only": (intercept_only(), None),
}


@pytest.mark.parametrize("setup", sorted(_OUTCOME_SETUPS))
def test_outcome_fit_keeps_both_predicted_arms(generated_dataset, setup):
    ds = generated_dataset
    main, inter = _OUTCOME_SETUPS[setup]
    om = fit_outcome(ds, main, inter)
    assert np.array_equal(om.m1, predict_outcome(om, ds.X, 1))
    assert np.array_equal(om.m0, predict_outcome(om, ds.X, 0))
    pipeline = EstimationPipeline(
        estimand=effect_on_treated(), kind=EstimatorKind.REGRESSION,
        m_design=main, m_interaction=inter,
    )
    (filled,) = fill_cells(ds, [pipeline])
    m1, m0 = predict_outcome(om, ds.X, 1), predict_outcome(om, ds.X, 0)
    bare = EstimationPipeline(pipeline.estimand, pipeline.kind)
    (supplied,) = fill_cells(ds, [bare], m1=m1, m0=m0)
    assert filled.value == supplied.value


# --- truncation --------------------------------------------------------------


def _percentile_by_hand(values, q):
    """Linear interpolation between order statistics."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    frac = pos - lo
    return s[lo] * (1 - frac) + s[hi] * frac


def test_truncate_small_example():
    pi = np.array([0.05, 0.2, 0.4, 0.6, 0.95])
    out = truncate_propensity(pi, 10.0, 90.0)
    lo = _percentile_by_hand(pi, 10.0)
    hi = _percentile_by_hand(pi, 90.0)
    np.testing.assert_allclose(out, np.clip(pi, lo, hi))
    assert out[0] == pytest.approx(lo)
    assert out[-1] == pytest.approx(hi)


def test_truncate_noop_bounds():
    pi = np.array([0.1, 0.5, 0.9])
    np.testing.assert_array_equal(truncate_propensity(pi, 0.0, 100.0), pi)


def test_truncate_refuses_an_empty_vector():
    # np.percentile raises a bare IndexError here.
    with pytest.raises(ValueError, match="^cannot truncate an empty propensity vector$"):
        truncate_propensity(np.array([]), 1, 99)


@pytest.mark.parametrize(
    "bad", [(-1, 90), (5, 105), (50, 50), (95, 5), (99, 1), (math.nan, 50), (-5, 50), (5, math.inf)]
)
def test_truncate_rejects_bad_percentiles(bad):
    with pytest.raises(ValueError, match=r"^need 0 <= lower < upper <= 100") as refused:
        truncate_propensity(np.array([0.2, 0.5]), *bad)
    # A pipeline refuses the pair when it is built, not inside every fill.
    with pytest.raises(ValueError) as built:
        EstimationPipeline(
            effect_on_treated(), EstimatorKind.IPW_NORMALIZED,
            pi_design=main_effects(("x1",)), truncate=bad,
        )
    assert str(built.value) == str(refused.value)


@pytest.mark.parametrize("bad", [(1, 2, 3), "5,95", (None, 50)])
def test_pipeline_truncate_must_be_a_pair_of_numbers(bad):
    with pytest.raises(ValueError, match=r"^truncate must be a \(lower, upper\) pair"):
        EstimationPipeline(
            effect_on_treated(), EstimatorKind.IPW_NORMALIZED,
            pi_design=main_effects(("x1",)), truncate=bad,
        )


@given(
    values=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=40),
    bounds=st.tuples(st.floats(0, 49), st.floats(51, 100)),
)
def test_truncate_matches_sort_oracle(values, bounds):
    lo_pct, hi_pct = bounds
    pi = np.array(values)
    out = truncate_propensity(pi, lo_pct, hi_pct)
    lo = _percentile_by_hand(values, lo_pct)
    hi = _percentile_by_hand(values, hi_pct)
    np.testing.assert_allclose(out, np.clip(pi, lo, hi), rtol=1e-12, atol=1e-12)
    assert out.min() >= lo - 1e-12
    assert out.max() <= hi + 1e-12


# --- ordinary least squares --------------------------------------------------


def test_constant_outcome():
    rng = np.random.default_rng(0)
    ds = make_ds(rng.normal(size=(20, 2)), rng.integers(0, 2, 20), np.full(20, 3.0))
    om = fit_outcome(ds, main_effects(("x1", "x2")))
    assert om.beta[0] == pytest.approx(3.0, abs=1e-10)
    np.testing.assert_allclose(om.beta[1:], 0.0, atol=1e-10)
    resid = ds.Y - np.where(ds.A == 1, om.m1, om.m0)
    assert resid @ resid / (ds.n - om.beta.shape[0]) == pytest.approx(0.0, abs=1e-20)


def test_exact_linear_outcome_recovered():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 2))
    A = rng.integers(0, 2, 30).astype(float)
    Y = 2.0 + 1.0 * X[:, 0] - 0.5 * A
    ds = make_ds(X, A, Y)
    om = fit_outcome(ds, main_effects(("x1", "x2")))
    # beta layout: intercept, x1, x2, a, a*x1, a*x2
    np.testing.assert_allclose(
        om.beta, [2.0, 1.0, 0.0, -0.5, 0.0, 0.0], atol=1e-9
    )


def _gaussian_elimination(G, b):
    """Solve G beta = b by hand with partial pivoting, pure python floats."""
    n = len(b)
    G = [list(map(float, row)) for row in G]
    b = list(map(float, b))
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(G[r][col]))
        G[col], G[pivot] = G[pivot], G[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, n):
            f = G[r][col] / G[col][col]
            for c in range(col, n):
                G[r][c] -= f * G[col][c]
            b[r] -= f * b[col]
    beta = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = b[r] - sum(G[r][c] * beta[c] for c in range(r + 1, n))
        beta[r] = s / G[r][r]
    return beta


def test_ols_matches_normal_equation_oracle():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(10, 1))
    A = np.array([0.0, 1, 0, 1, 1, 0, 1, 0, 0, 1])
    Y = rng.normal(size=10)
    ds = make_ds(X, A, Y)
    om = fit_outcome(ds, main_effects(("x",)))
    M = np.column_stack([np.ones(10), X[:, 0], A, A * X[:, 0]])
    G = (M.T @ M).tolist()
    rhs = (M.T @ Y).tolist()
    oracle = _gaussian_elimination(G, rhs)
    np.testing.assert_allclose(om.beta, oracle, atol=1e-8)


def test_residuals_orthogonal_to_design(small_dataset):
    om = fit_outcome(small_dataset, main_effects(small_dataset.covariate_names))
    ds = small_dataset
    inter = om.interaction_design.matrix(ds.X)
    M = np.column_stack(
        [np.ones(ds.n), om.main_design.matrix(ds.X), ds.A, ds.A[:, None] * inter]
    )
    fitted = np.where(
        ds.A == 1.0, predict_outcome(om, ds.X, 1), predict_outcome(om, ds.X, 0)
    )
    resid = ds.Y - fitted
    assert np.max(np.abs(M.T @ resid)) < 1e-8
    assert abs(resid.mean()) < 1e-10


def test_separate_interaction_design():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50, 2))
    A = rng.integers(0, 2, 50).astype(float)
    Y = 1.0 + X[:, 1] + A * (2.0 * X[:, 0])
    ds = make_ds(X, A, Y)
    om = fit_outcome(
        ds,
        parse_design("x2", ("x1", "x2")),
        interaction=parse_design("x1", ("x1", "x2")),
    )
    np.testing.assert_allclose(om.beta, [1.0, 1.0, 0.0, 2.0], atol=1e-9)
    np.testing.assert_allclose(
        predict_outcome(om, X, 1) - predict_outcome(om, X, 0),
        2.0 * X[:, 0],
        atol=1e-9,
    )


def test_predict_outcome_rejects_bad_arm(small_dataset):
    om = fit_outcome(small_dataset, main_effects(small_dataset.covariate_names))
    with pytest.raises(ValueError):
        predict_outcome(om, small_dataset.X, 2)


def test_rank_deficient_outcome_design():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 2))
    ds = make_ds(X, rng.integers(0, 2, 40), rng.normal(size=40))
    spec = DesignSpec(terms=main_effects(("x1", "x2")).terms * 2)
    with pytest.raises(
        RankDeficiencyError,
        match=r"^outcome design matrix is numerically rank deficient \(min/max \|R_jj\| = ",
    ):
        fit_outcome(ds, spec)


def test_outcome_design_wider_than_its_rows():
    rng = np.random.default_rng(12)
    ds = make_ds(rng.normal(size=(6, 5)), [0, 1, 0, 1, 0, 1], rng.normal(size=6))
    with pytest.raises(RankDeficiencyError, match=r"^outcome design: 12 columns but only 6 rows$"):
        fit_outcome(ds, main_effects(("x1", "x2", "x3", "x4", "x5")))


def test_no_residual_degrees_of_freedom():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(6, 2))
    ds = make_ds(X, [0, 1, 0, 1, 0, 1], rng.normal(size=6))
    with pytest.raises(ModelFitError, match="degrees of freedom"):
        fit_outcome(ds, main_effects(("x1", "x2")))


# --- heap reuse --------------------------------------------------------------

_GLIBC = "CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {}) and bool(
    os.confstr("CS_GNU_LIBC_VERSION")
)
_USER_MALLOC = (
    "MALLOC_MMAP_THRESHOLD_" in os.environ
    or "MALLOC_TRIM_THRESHOLD_" in os.environ
    or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")
)
needs_default_glibc_malloc = pytest.mark.skipif(
    not _GLIBC or _USER_MALLOC, reason="needs glibc malloc without user thresholds"
)

# Minor page faults of ten warm n = 5000 outcome fits, in a fresh process.
_FIT_FAULTS = """
import resource
import numpy as np
from wate.design import main_effects
from wate.models import fit_outcome
from wate.simulation import generate_dataset

ds = generate_dataset(1, 5000, np.random.default_rng(0))
design = main_effects(ds.covariate_names)
fit_outcome(ds, design)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    fit_outcome(ds, design)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def ten_fit_faults(**env: str) -> int:
    src = str(Path(wate.models.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _FIT_FAULTS],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return int(out.stdout)


@needs_default_glibc_malloc
def test_warm_outcome_fits_fault_in_no_pages():
    # With glibc's defaults each fit trims the heap and the next one faults
    # about 440 pages back in.
    assert ten_fit_faults() < 500


@needs_default_glibc_malloc
@pytest.mark.parametrize(
    "env",
    [
        {"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_TRIM_THRESHOLD_": "131072"},
        {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072:glibc.malloc.trim_threshold=131072"},
    ],
)
def test_user_malloc_thresholds_win(env):
    assert ten_fit_faults(**env) > 10 * 100


def test_import_survives_a_python_without_ctypes(monkeypatch):
    monkeypatch.setitem(sys.modules, "ctypes", None)
    _keep_freed_heap()
