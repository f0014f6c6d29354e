import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

import wate.simulation

from wate.data import CounterfactualDataset
from wate.models import fit_outcome, fit_propensity, predict_outcome, predict_propensity
from wate.simulation import (
    SimulationDesign,
    generate_dataset,
    outcome_design,
    propensity_design,
    reference_truth,
    run_study,
    study_cells,
    treatment_effect,
    true_propensity,
)


def test_propensity_at_origin():
    # With every covariate zero only the intercept of the log odds is left.
    p = true_propensity(np.zeros((1, 5)))
    assert p[0] == pytest.approx(1 / (1 + np.exp(-0.5)), rel=1e-12)


def test_effect_surfaces():
    X = np.zeros((1, 5))
    assert treatment_effect(1, X)[0] == pytest.approx(1.0, rel=1e-12)
    assert treatment_effect(2, X)[0] == pytest.approx(0.0, abs=1e-15)
    X = np.array([[1.0, 0, 2, 0, 3]])
    assert treatment_effect(2, X)[0] == pytest.approx(1 + 0.5 * 6, rel=1e-12)
    assert treatment_effect(1, X)[0] == pytest.approx(np.exp(4.0), rel=1e-12)
    with pytest.raises(ValueError):
        treatment_effect(3, X)


def test_generator_matches_independent_reimplementation():
    # Pin the draw order: covariates as one (n, 5) normal block, then n
    # uniforms for assignment, then n normals for noise.
    seed = 314
    n = 200
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 5))
    logit = 0.5 + X[:, 0] - 0.5 * X[:, 1] ** 2 + 0.5 * X[:, 2] * X[:, 4]
    pi = 1.0 / (1.0 + np.exp(-logit))
    A = (rng.random(n) < pi).astype(float)
    eps = rng.standard_normal(n)
    y0 = 1.0 + X[:, 1] ** 2 + X[:, 2] + eps
    y1 = y0 + np.exp(X[:, 0] + 0.5 * X[:, 2] * X[:, 4])

    ds = generate_dataset(1, n, np.random.default_rng(seed))
    np.testing.assert_array_equal(ds.X, X)
    np.testing.assert_array_equal(ds.A, A)
    np.testing.assert_allclose(ds.pi_true, pi, rtol=1e-12)
    np.testing.assert_allclose(ds.y0, y0, rtol=1e-12)
    np.testing.assert_allclose(ds.y1, y1, rtol=1e-12)


def test_generated_dataset_is_consistent():
    ds = generate_dataset(2, 500, np.random.default_rng(0))
    assert isinstance(ds, CounterfactualDataset)
    np.testing.assert_array_equal(ds.Y, np.where(ds.A == 1, ds.y1, ds.y0))
    assert np.all((ds.pi_true > 0) & (ds.pi_true < 1))
    assert ds.covariate_names == ("x1", "x2", "x3", "x4", "x5")
    # Assignment rate should track the mean propensity.
    assert abs(ds.A.mean() - ds.pi_true.mean()) < 0.1


def _quadrature_truth(model, nodes):
    """The four standard contrasts E[h*effect]/E[h] under the nodes^4-point
    Gauss-Hermite rule over x1, x2, x3 and x5 (x4 enters no contrast),
    summed one x1 node at a time."""
    z, w = hermegauss(nodes)
    w = w / w.sum()
    x2, x3, x5 = np.ix_(z, z, z)
    w2, w3, w5 = np.ix_(w, w, w)
    num = dict.fromkeys(("ate", "att", "atc", "ato"), 0.0)
    den = dict.fromkeys(num, 0.0)
    for x1, w1 in zip(z, w):
        weight = w1 * w2 * w3 * w5
        base = x1 + 0.5 * x3 * x5
        effect = np.exp(base) if model == 1 else base
        pi = 1.0 / (1.0 + np.exp(-(0.5 + x1 - 0.5 * x2**2 + 0.5 * x3 * x5)))
        for key, h in zip(num, (1.0, pi, 1.0 - pi, pi * (1.0 - pi))):
            num[key] += np.sum(weight * h * effect)
            den[key] += np.sum(weight * h)
    return {key: float(num[key] / den[key]) for key in num}


# Exact population values by symmetry or in closed form: model 1's ATE is
# E[exp(x1)] * E[exp(0.5*x3*x5)] = exp(1/2) / sqrt(3/4), model 2's is 0.
EXACT_ATE = {1: np.exp(0.5) / np.sqrt(0.75), 2: 0.0}


@pytest.mark.parametrize("model", [1, 2])
def test_pinned_values_match_gauss_hermite_quadrature(model):
    coarse = _quadrature_truth(model, 30)
    fine = _quadrature_truth(model, 40)
    truth = reference_truth(model)
    for key, exact in fine.items():
        assert abs(coarse[key] - exact) < 1e-7, key
        # The pinned values are a Monte Carlo integration, so each lies
        # within a few of its own standard errors of the quadrature.
        assert abs(truth.value(key) - exact) < 3 * truth.mc_se(key), key
    assert abs(fine["ate"] - EXACT_ATE[model]) < 1e-12


def test_true_estimand_ordering_model1():
    truth = reference_truth(1)
    # Treated units have larger effects by construction; the overlap value
    # sits between the control and whole-population values.
    assert truth.att > truth.ate > truth.ato > truth.atc


def test_reference_truth_is_cached_and_deterministic():
    a = reference_truth(2)
    b = reference_truth(2)
    assert a is b


def test_default_population_values_are_pinned_not_integrated():
    for model in (1, 2):
        assert reference_truth(model) is reference_truth(model, 10**6)
        assert reference_truth(model, draws=10**6).draws == 10**6
        assert reference_truth(model).outcome_model == model
    # Other draws are refused: the library integrates nothing.
    with pytest.raises(ValueError, match="only the pinned") as other_draws:
        reference_truth(1, 1000)
    assert "1000" in str(other_draws.value)
    with pytest.raises(ValueError) as bad_model:
        reference_truth(3)
    assert str(bad_model.value) == "outcome_model must be 1 or 2, got 3"


def test_correct_propensity_design_recovers_coefficients():
    ds = generate_dataset(1, 50_000, np.random.default_rng(6))
    model = fit_propensity(ds, propensity_design(True))
    np.testing.assert_allclose(model.alpha, [0.5, 1.0, -0.5, 0.5], atol=0.06)
    pi = predict_propensity(model, ds.X)
    np.testing.assert_allclose(pi, ds.pi_true, atol=0.05)


def test_misspecified_propensity_correlation():
    ds = generate_dataset(1, 100_000, np.random.default_rng(7))
    model = fit_propensity(ds, propensity_design(False))
    eta = np.log(predict_propensity(model, ds.X) / (1 - predict_propensity(model, ds.X)))
    true_logit = np.log(ds.pi_true / (1 - ds.pi_true))
    corr = np.corrcoef(eta, true_logit)[0, 1]
    assert corr == pytest.approx(0.75, abs=0.05)


@pytest.mark.parametrize("model", [1, 2])
def test_correct_outcome_design_reproduces_conditional_mean(model):
    ds = generate_dataset(model, 30_000, np.random.default_rng(9))
    main, inter = outcome_design(True, model)
    om = fit_outcome(ds, main, inter)
    mean1 = 1.0 + ds.X[:, 1] ** 2 + ds.X[:, 2] + treatment_effect(model, ds.X)
    mean0 = 1.0 + ds.X[:, 1] ** 2 + ds.X[:, 2]
    # The design nests the truth, so predictions converge on it.
    assert np.mean((predict_outcome(om, ds.X, 0) - mean0) ** 2) < 0.01
    assert np.mean((predict_outcome(om, ds.X, 1) - mean1) ** 2) < 0.01
    assert om.residual_variance == pytest.approx(1.0, abs=0.05)


def test_misspecified_outcome_r_squared_model2():
    ds = generate_dataset(2, 100_000, np.random.default_rng(10))
    main, inter = outcome_design(False, 2)
    om = fit_outcome(ds, main, inter)
    r2 = 1.0 - om.residual_variance / np.var(ds.Y, ddof=1)
    assert 0.25 < r2 < 0.40
    main_c, inter_c = outcome_design(True, 2)
    om_c = fit_outcome(ds, main_c, inter_c)
    r2_c = 1.0 - om_c.residual_variance / np.var(ds.Y, ddof=1)
    assert r2_c > 0.7


def test_study_cells_layout():
    design = SimulationDesign(replications=2)
    cells = study_cells(design)
    # Regression rows have no overlap-population column.
    assert ("regression", None, True, "ato") not in cells
    assert ("regression", None, True, "att") in cells
    assert ("ipw", False, None, "ato") in cells
    assert ("dr", False, True, "ate") in cells
    # 2 regression rows x 3 + 2 ipw rows x 4 + 4 dr rows x 4
    assert len(cells) == 6 + 8 + 16


def test_study_replicate_fits_each_working_model_once_and_predicts_none(monkeypatch):
    # 43 replicates of the default 30-cell grid at n = 200, in stacks of the
    # fewest replicates that hold _BATCH_ROWS rows and outcome parts of the
    # fewest that hold _PART_ROWS (41 and 2, and 21, 20 and 2 at 8192 rows):
    # per replicate, 2 propensity and 2 outcome fits and no prediction (the
    # cells read the fits' own in-sample vectors). Per stack, one design
    # evaluation per propensity design; per outcome part, 3 (one for the
    # outcome model whose interaction design equals its main design and two
    # for the one whose designs differ) and one outcome model matrix per
    # outcome fit, which also serves both arms' fitted means.
    import wate.bootstrap
    import wate.design
    import wate.estimators
    import wate.models

    calls = {"propensity": 0, "outcome": 0, "predict": 0, "matrix": 0, "outcome_matrix": 0}

    def counting(stage, fn, count=lambda *args: 1):
        def wrapper(*args, **kwargs):
            calls[stage] += count(*args)
            return fn(*args, **kwargs)

        return wrapper

    # The fits of a stack of replicates are one call per working model;
    # count the datasets each call fits.
    monkeypatch.setattr(
        wate.estimators, "_fit_propensities",
        counting("propensity", wate.models._fit_propensities, lambda stack, _: len(stack.A)),
    )
    monkeypatch.setattr(
        wate.estimators, "_fit_outcomes",
        counting("outcome", wate.models._fit_outcomes, lambda stack, *_: len(stack.A)),
    )
    for name in ("predict_propensity", "predict_outcome"):
        monkeypatch.setattr(wate.models, name, counting("predict", getattr(wate.models, name)))
    monkeypatch.setattr(
        wate.design.DesignSpec, "matrix", counting("matrix", wate.design.DesignSpec.matrix)
    )
    monkeypatch.setattr(
        wate.models, "_outcome_matrix", counting("outcome_matrix", wate.models._outcome_matrix)
    )
    reps, n = 43, 200
    stack, part = -(-wate.bootstrap._BATCH_ROWS // n), -(-wate.models._PART_ROWS // n)
    stacks = [min(stack, reps - start) for start in range(0, reps, stack)]
    parts = sum(-(-size // part) for size in stacks)
    assert len(stacks) > 1 and parts > len(stacks)
    design = SimulationDesign(outcome_model=1, n=n, replications=reps)
    assert len(study_cells(design)) == 30
    run_study(design)
    assert calls == {
        "propensity": reps * 2, "outcome": reps * 2, "predict": 0,
        "matrix": len(stacks) * 2 + parts * 3, "outcome_matrix": parts * 2,
    }


@pytest.fixture(scope="module")
def tiny_study():
    design = SimulationDesign(outcome_model=2, n=150, replications=40, seed=77)
    return run_study(design)


def test_study_structure(tiny_study):
    report = tiny_study
    assert len(report.cells) == 30
    for c in report.cells:
        assert c.n_ok + c.n_failed == 40
        if c.bias is not None:
            assert c.rmse >= abs(c.bias) - 1e-12
            assert c.mc_se == pytest.approx(c.sd / np.sqrt(c.n_ok), rel=1e-9)


def test_study_deterministic_and_worker_invariant(tiny_study):
    design = SimulationDesign(
        outcome_model=2, n=150, replications=40, seed=77, workers=3
    )
    again = run_study(design)
    assert again.cells == tiny_study.cells


def test_study_seed_changes_results(tiny_study):
    other = run_study(
        SimulationDesign(outcome_model=2, n=150, replications=40, seed=78)
    )
    assert other.cells != tiny_study.cells


def test_small_samples_produce_counted_failures():
    report = run_study(
        SimulationDesign(
            outcome_model=2,
            n=25,
            replications=30,
            seed=5,
            estimators=("ipw",),
        )
    )
    total_failed = sum(c.n_failed for c in report.cells)
    assert total_failed > 0
    for c in report.cells:
        assert c.n_ok + c.n_failed == 30


def test_quick_bias_smoke():
    # 80 replications is enough to separate the estimators that should be
    # near the truth from one that should not: the weighting estimator with
    # the right assignment model, the augmented estimator leaning on a
    # correct outcome model, and the weighting estimator fed a main-effects
    # assignment model that misses the curvature entirely.
    report = run_study(
        SimulationDesign(outcome_model=1, n=1000, replications=80, seed=3, workers=2)
    )
    assert abs(report.cell("ipw", True, None, "att").bias) < 0.2
    assert abs(report.cell("dr", False, True, "att").bias) < 0.2
    assert report.cell("ipw", False, None, "ate").bias < -0.45


@pytest.mark.parametrize("n", [0, -3])
def test_a_study_refuses_replications_without_rows_before_any_draw(monkeypatch, n):
    # The stack size divides by n, so n < 1 is refused up front.
    monkeypatch.setattr(wate.simulation, "_map_stacks", None)
    with pytest.raises(ValueError, match=f"at least 1 row per replication, got n = {n}"):
        run_study(SimulationDesign(n=n, replications=10))


def test_invalid_design_tokens():
    with pytest.raises(ValueError):
        study_cells(SimulationDesign(estimators=("magic",)))
    with pytest.raises(ValueError):
        study_cells(SimulationDesign(estimands=("ate", "bogus")))
    with pytest.raises(ValueError):
        run_study(SimulationDesign(replications=1))
    with pytest.raises(ValueError):
        generate_dataset(7, 10, np.random.default_rng(0))
    # A grid with no cells would report nothing.
    for empty in (
        SimulationDesign(estimators=("regression",), estimands=("ato",)),
        SimulationDesign(estimators=()),
        SimulationDesign(estimands=()),
    ):
        with pytest.raises(ValueError, match="no study cells"):
            study_cells(empty)
        with pytest.raises(ValueError, match="no study cells"):
            run_study(empty)
