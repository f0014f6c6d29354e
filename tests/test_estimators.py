import gc
import math
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wate.estimators
import wate.models
from wate.data import ObservationalDataset, _Stack
from wate.design import main_effects
from wate.errors import (
    EstimationError,
    FitFailure,
    MissingModelError,
    NegativeTargetError,
    WateError,
)
from wate.estimators import (
    EstimationPipeline,
    EstimatorKind,
    _cell_value_rows,
    fill_cells,
    has_formula,
    plan_cells,
)
from wate.models import (
    OutcomeModel,
    fit_outcome,
    fit_propensity,
    predict_outcome,
    truncate_propensity,
)
from wate.simulation import generate_dataset, propensity_design
from wate.targets import (
    average_effect,
    covariate_target,
    effect_on_controls,
    effect_on_treated,
    evaluate_h,
    linear_in_propensity,
    overlap_effect,
)

from test_stacking import _stacked, _study_draw


def random_instance(seed, n=40, p=2):
    """Dataset plus a fitted outcome model and a synthetic propensity
    vector. The propensity is generated directly (not fitted) so estimator
    algebra can be tested in isolation."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    A = np.zeros(n)
    A[: n // 2] = 1.0
    rng.shuffle(A)
    Y = 1.0 + X @ rng.normal(size=p) + A * (0.5 + X[:, 0]) + rng.normal(size=n)
    ds = ObservationalDataset(X=X, A=A, Y=Y)
    om = fit_outcome(ds, main_effects(ds.covariate_names))
    pi = rng.uniform(0.08, 0.92, size=n)
    return ds, om, pi


def zero_outcome_model(om):
    return OutcomeModel(
        beta=np.zeros_like(om.beta),
        main_design=om.main_design,
        interaction_design=om.interaction_design,
    )


def fixed_h(h, label="fixed-h"):
    """Covariate target returning the vector ``h`` on the rows it was made
    for: an arbitrary h, and the generic augmented form for any target."""
    return covariate_target(lambda X: h, label)


def fill_one(ds, kind, target, pi=None, m1=None, m0=None):
    """The one cell ``(kind, target)``, filled by :func:`fill_cells` from the
    supplied vectors; raises the error the cell failed with."""
    (result,) = fill_cells(ds, [EstimationPipeline(target, kind)], pi=pi, m1=m1, m0=m0)
    if isinstance(result, WateError):
        raise result
    return result


def arm_means(om, X):
    """The arm means of ``om`` predicted on the rows ``X``, as the ``m1`` and
    ``m0`` keywords of :func:`fill_one`."""
    return {"m1": predict_outcome(om, X, 1), "m0": predict_outcome(om, X, 0)}


# --- hand-summed oracles -----------------------------------------------------


def att_dr_oracle(ds, om, pi):
    """Treated closed form, hand-summed:
    sum [ A*Y - ( pi*(1-A)*Y/(1-pi) + (A - pi)*m0/(1-pi) ) ] / sum A."""
    m0 = predict_outcome(om, ds.X, 0)
    a, y = ds.A, ds.Y
    terms = [
        a[i] * y[i]
        - (
            pi[i] * (1 - a[i]) * y[i] / (1 - pi[i])
            + (a[i] - pi[i]) * m0[i] / (1 - pi[i])
        )
        for i in range(ds.n)
    ]
    return math.fsum(terms) / math.fsum(a)


def atc_dr_oracle(ds, om, pi):
    """Control closed form, hand-summed:
    sum [ ( (1-pi)*A*Y/pi - (A - pi)*m1/pi ) - (1-A)*Y ] / sum (1-A)."""
    m1 = predict_outcome(om, ds.X, 1)
    a, y = ds.A, ds.Y
    terms = [
        ((1 - pi[i]) * a[i] * y[i] / pi[i] - (a[i] - pi[i]) * m1[i] / pi[i])
        - (1 - a[i]) * y[i]
        for i in range(ds.n)
    ]
    return math.fsum(terms) / math.fsum(1 - a[i] for i in range(ds.n))


def unnormalized_ipw_oracle(ds, h, pi):
    """Single-ratio weighting form, hand-summed:
    sum (A*Y*h/pi - (1-A)*Y*h/(1-pi)) / sum h."""
    a, y = ds.A, ds.Y
    terms = [
        a[i] * y[i] * h[i] / pi[i] - (1 - a[i]) * y[i] * h[i] / (1 - pi[i])
        for i in range(ds.n)
    ]
    return math.fsum(terms) / math.fsum(h)


def _linear_dr(ds, om, pi, a, b):
    target = linear_in_propensity(a, b)
    return fill_one(
        ds, EstimatorKind.DR_LINEAR_IN_PI, target, pi=pi, **arm_means(om, ds.X)
    ).value


def att_dr(ds, om, pi):
    return _linear_dr(ds, om, pi, 0, 1)


def atc_dr(ds, om, pi):
    return _linear_dr(ds, om, pi, 1, -1)


def test_regression_matches_fsum_oracle():
    ds, om, pi = random_instance(0)
    h = evaluate_h(overlap_effect(), ds.X, pi)
    m1 = predict_outcome(om, ds.X, 1)
    m0 = predict_outcome(om, ds.X, 0)
    oracle = math.fsum(
        h[i] * (m1[i] - m0[i]) for i in range(ds.n)
    ) / math.fsum(h)
    got = fill_one(
        ds, EstimatorKind.REGRESSION, overlap_effect(), pi=pi, **arm_means(om, ds.X)
    ).value
    assert got == pytest.approx(oracle, rel=1e-12)


# Each target's balancing weights (w1, w0) = (h/pi, h/(1 - pi)) in closed form.
_CLOSED_FORM_WEIGHTS = (
    (average_effect(), lambda p: (1 / p, 1 / (1 - p))),
    (effect_on_treated(), lambda p: (1.0, p / (1 - p))),
    (effect_on_controls(), lambda p: ((1 - p) / p, 1.0)),
    (overlap_effect(), lambda p: (1 - p, p)),
    (linear_in_propensity(0.5, 1.5), lambda p: ((0.5 + 1.5 * p) / p, (0.5 + 1.5 * p) / (1 - p))),
)


def test_ipw_normalized_matches_fsum_oracle():
    ds, _, pi = random_instance(1)
    a, y = ds.A, ds.Y
    for target, weights in _CLOSED_FORM_WEIGHTS:
        w = [weights(p) for p in pi]
        tw = [a[i] * w[i][0] for i in range(ds.n)]
        cw = [(1 - a[i]) * w[i][1] for i in range(ds.n)]
        top = math.fsum(tw[i] * y[i] for i in range(ds.n)) / math.fsum(tw)
        bot = math.fsum(cw[i] * y[i] for i in range(ds.n)) / math.fsum(cw)
        got = fill_one(ds, EstimatorKind.IPW_NORMALIZED, target, pi=pi)
        assert close(got.value, top - bot), target.label


def test_aipw_matches_fsum_oracle():
    ds, om, pi = random_instance(2)
    h = evaluate_h(overlap_effect(), ds.X, pi)
    m1 = predict_outcome(om, ds.X, 1)
    m0 = predict_outcome(om, ds.X, 0)
    a, y = ds.A, ds.Y
    terms = [
        h[i]
        * (
            (a[i] * y[i] / pi[i] - (a[i] - pi[i]) / pi[i] * m1[i])
            - (
                (1 - a[i]) * y[i] / (1 - pi[i])
                + (a[i] - pi[i]) / (1 - pi[i]) * m0[i]
            )
        )
        for i in range(ds.n)
    ]
    oracle = math.fsum(terms) / math.fsum(h)
    got = fill_one(ds, EstimatorKind.AIPW, overlap_effect(), pi=pi, **arm_means(om, ds.X)).value
    assert got == pytest.approx(oracle, rel=1e-12)


def test_att_dr_matches_fsum_oracle():
    ds, om, pi = random_instance(3)
    assert att_dr(ds, om, pi) == pytest.approx(att_dr_oracle(ds, om, pi), rel=1e-12)
    assert atc_dr(ds, om, pi) == pytest.approx(atc_dr_oracle(ds, om, pi), rel=1e-12)


# --- closed-form sanity cases ------------------------------------------------


def test_regression_constant_effect():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 1))
    A = (np.arange(30) % 2).astype(float)
    Y = X[:, 0] + 2.5 * A
    ds = ObservationalDataset(X=X, A=A, Y=Y)
    om = fit_outcome(ds, main_effects(("x1",)))
    h = np.abs(rng.normal(size=30)) + 0.1
    got = fill_one(ds, EstimatorKind.REGRESSION, fixed_h(h), **arm_means(om, ds.X)).value
    assert got == pytest.approx(2.5, abs=1e-9)


def test_point_mass_h_reads_single_contrast():
    ds, om, _ = random_instance(5)
    h = np.zeros(ds.n)
    h[7] = 1.0
    m1 = predict_outcome(om, ds.X, 1)
    m0 = predict_outcome(om, ds.X, 0)
    got = fill_one(ds, EstimatorKind.REGRESSION, fixed_h(h, "point"), **arm_means(om, ds.X)).value
    assert got == pytest.approx(m1[7] - m0[7], rel=1e-12)


def test_ipw_equal_propensities_give_mean_difference():
    ds, _, _ = random_instance(6)
    pi = np.full(ds.n, 0.5)
    got = fill_one(ds, EstimatorKind.IPW_NORMALIZED, average_effect(), pi=pi).value
    expected = ds.Y[ds.A == 1].mean() - ds.Y[ds.A == 0].mean()
    assert got == pytest.approx(expected, rel=1e-12)


def test_ipw_zero_when_outcome_constant():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(20, 1))
    A = (np.arange(20) % 2).astype(float)
    ds = ObservationalDataset(X=X, A=A, Y=np.full(20, 3.7))
    pi = rng.uniform(0.2, 0.8, 20)
    got = fill_one(ds, EstimatorKind.IPW_NORMALIZED, overlap_effect(), pi=pi).value
    assert got == pytest.approx(0.0, abs=1e-12)


def test_att_dr_shift_between_arms():
    # Controls sit exactly on the outcome model; every treated outcome is
    # m0 + delta. The adjustment terms then cancel for any propensity and
    # the estimate is exactly delta.
    rng = np.random.default_rng(8)
    n = 24
    X = rng.normal(size=(n, 1))
    A = (np.arange(n) % 2).astype(float)
    delta = 1.25
    om = OutcomeModel(
        beta=np.array([2.0, 0.5, 0.0, 0.0]),
        main_design=main_effects(("x1",)),
        interaction_design=main_effects(("x1",)),
    )
    m0 = predict_outcome(om, X, 0)
    Y = np.where(A == 1, m0 + delta, m0)
    ds = ObservationalDataset(X=X, A=A, Y=Y)
    pi = rng.uniform(0.1, 0.9, n)
    assert att_dr(ds, om, pi) == pytest.approx(delta, rel=1e-12)
    assert att_dr(ds, om, pi) == pytest.approx(att_dr_oracle(ds, om, pi), rel=1e-12)


def test_atc_dr_shift_between_arms():
    # Mirror construction: treated sit on m1, controls are m1 - delta.
    rng = np.random.default_rng(28)
    n = 24
    X = rng.normal(size=(n, 1))
    A = (np.arange(n) % 2).astype(float)
    delta = -0.75
    om = OutcomeModel(
        beta=np.array([1.0, -0.5, 0.0, 0.0]),
        main_design=main_effects(("x1",)),
        interaction_design=main_effects(("x1",)),
    )
    m1 = predict_outcome(om, X, 1)
    Y = np.where(A == 1, m1, m1 - delta)
    ds = ObservationalDataset(X=X, A=A, Y=Y)
    pi = rng.uniform(0.1, 0.9, n)
    assert atc_dr(ds, om, pi) == pytest.approx(delta, rel=1e-12)
    assert atc_dr(ds, om, pi) == pytest.approx(atc_dr_oracle(ds, om, pi), rel=1e-12)


def att_regression_oracle(ds, om):
    """sum A*(Y - m0) / sum A, hand-summed."""
    m0 = predict_outcome(om, ds.X, 0)
    a, y = ds.A, ds.Y
    return math.fsum(a[i] * (y[i] - m0[i]) for i in range(ds.n)) / math.fsum(a)


def test_att_regression_indicator_form():
    ds, om, _ = random_instance(9)
    got = fill_one(ds, EstimatorKind.REGRESSION, effect_on_treated(), **arm_means(om, ds.X)).value
    assert got == pytest.approx(att_regression_oracle(ds, om), rel=1e-12)


def test_atc_regression_indicator_form():
    ds, om, _ = random_instance(10)
    m1 = predict_outcome(om, ds.X, 1)
    a, y = ds.A, ds.Y
    oracle = math.fsum(
        (1 - a[i]) * (m1[i] - y[i]) for i in range(ds.n)
    ) / math.fsum(1 - a[i] for i in range(ds.n))
    got = fill_one(ds, EstimatorKind.REGRESSION, effect_on_controls(), **arm_means(om, ds.X)).value
    assert got == pytest.approx(oracle, rel=1e-12)


# --- exact algebraic identities ----------------------------------------------


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@pytest.mark.parametrize("seed", range(8))
def test_linear_form_nests_treated_and_control_estimators(seed):
    ds, om, pi = random_instance(seed, n=50)
    assert att_dr(ds, om, pi) == pytest.approx(att_dr_oracle(ds, om, pi), rel=1e-12)
    assert atc_dr(ds, om, pi) == pytest.approx(atc_dr_oracle(ds, om, pi), rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_aipw_with_zero_outcome_model_is_unnormalized_ipw(seed):
    ds, om, pi = random_instance(seed, n=50)
    zero = zero_outcome_model(om)
    for target in (average_effect(), overlap_effect(), effect_on_treated()):
        h = evaluate_h(target, ds.X, pi)
        lhs = fill_one(ds, EstimatorKind.AIPW, fixed_h(h), pi=pi, **arm_means(zero, ds.X)).value
        assert close(lhs, unnormalized_ipw_oracle(ds, h, pi)), target.label


@pytest.mark.parametrize("seed", range(8))
def test_aipw_with_zero_residuals_is_regression(seed):
    ds, om, pi = random_instance(seed, n=50)
    fitted = np.where(
        ds.A == 1.0, predict_outcome(om, ds.X, 1), predict_outcome(om, ds.X, 0)
    )
    ds_fit = ObservationalDataset(X=ds.X, A=ds.A, Y=fitted)
    om_fit = fit_outcome(ds_fit, om.main_design, om.interaction_design)
    means = arm_means(om_fit, ds_fit.X)
    lhs = fill_one(ds_fit, EstimatorKind.AIPW, overlap_effect(), pi=pi, **means).value
    rhs = fill_one(ds_fit, EstimatorKind.REGRESSION, overlap_effect(), pi=pi, **means).value
    assert close(lhs, rhs, tol=1e-10)


@pytest.mark.parametrize("seed", range(8))
def test_constant_propensity_collapses_overlap_to_average(seed):
    # With a flat propensity h is constant, so it cancels from the weighted
    # average and the overlap-population estimate equals the plain one.
    ds, om, _ = random_instance(seed, n=50)
    pi = np.full(ds.n, 0.35 + 0.01 * seed)
    lhs = fill_one(ds, EstimatorKind.AIPW, overlap_effect(), pi=pi, **arm_means(om, ds.X)).value
    rhs = fill_one(ds, EstimatorKind.AIPW, average_effect(), pi=pi, **arm_means(om, ds.X)).value
    assert close(lhs, rhs)


@pytest.mark.parametrize("seed", range(6))
def test_swapping_treatment_labels_negates_the_estimators(seed):
    # Relabel arms: A' = 1 - A, pi' = 1 - pi, and an outcome model whose
    # arm means are exchanged. The treated-population estimate of the
    # relabeled problem is minus the control-population estimate of the
    # original.
    ds, om, pi = random_instance(seed, n=50)
    ds_swapped = ObservationalDataset(X=ds.X, A=1.0 - ds.A, Y=ds.Y)
    k = len(om.main_design)
    b0 = om.beta[0]
    b_main = om.beta[1 : 1 + k]
    c0 = om.beta[1 + k]
    c_inter = om.beta[2 + k :]
    swapped_beta = np.concatenate(
        [[b0 + c0], b_main + c_inter, [-c0], -c_inter]
    )
    om_swapped = OutcomeModel(
        beta=swapped_beta,
        main_design=om.main_design,
        interaction_design=om.interaction_design,
    )
    lhs = att_dr(ds_swapped, om_swapped, 1.0 - pi)
    rhs = atc_dr(ds, om, pi)
    assert close(lhs, -rhs)
    assert lhs == pytest.approx(att_dr_oracle(ds_swapped, om_swapped, 1.0 - pi), rel=1e-12)
    assert rhs == pytest.approx(atc_dr_oracle(ds, om, pi), rel=1e-12)
    lhs2 = fill_one(
        ds_swapped, EstimatorKind.IPW_NORMALIZED, effect_on_treated(), pi=1.0 - pi
    ).value
    rhs2 = fill_one(ds, EstimatorKind.IPW_NORMALIZED, effect_on_controls(), pi=pi).value
    assert close(lhs2, -rhs2)


# --- equivariance ------------------------------------------------------------


def _all_pipeline_values(ds, om, pi):
    att, atc = att_dr(ds, om, pi), atc_dr(ds, om, pi)
    assert att == pytest.approx(att_dr_oracle(ds, om, pi), rel=1e-12)
    assert atc == pytest.approx(atc_dr_oracle(ds, om, pi), rel=1e-12)
    ato = overlap_effect()
    return np.array(
        [
            fill_one(ds, EstimatorKind.REGRESSION, ato, pi=pi, **arm_means(om, ds.X)).value,
            fill_one(ds, EstimatorKind.IPW_NORMALIZED, ato, pi=pi).value,
            fill_one(ds, EstimatorKind.AIPW, ato, pi=pi, **arm_means(om, ds.X)).value,
            att,
            atc,
            _linear_dr(ds, om, pi, 1, 2),
        ]
    )


@pytest.mark.parametrize("shift", [-3.0, 2.5])
def test_location_shift_with_refit_leaves_estimates_alone(shift):
    # Holds for every estimator except the unnormalized weighting form,
    # whose arm weights do not sum to a common mass.
    ds, om, pi = random_instance(11, n=60)
    base = _all_pipeline_values(ds, om, pi)
    ds2 = ObservationalDataset(X=ds.X, A=ds.A, Y=ds.Y + shift)
    om2 = fit_outcome(ds2, om.main_design, om.interaction_design)
    shifted = _all_pipeline_values(ds2, om2, pi)
    np.testing.assert_allclose(shifted, base, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("scale", [-2.0, 0.5])
def test_scaling_outcome_scales_estimates(scale):
    # The unnormalized weighting form is the generic augmented estimator
    # with a zero outcome model.
    ds, om, pi = random_instance(12, n=60)
    base = _all_pipeline_values(ds, om, pi)
    h_ato = fixed_h(evaluate_h(overlap_effect(), ds.X, pi))
    zero = zero_outcome_model(om)
    base_unnorm = fill_one(ds, EstimatorKind.AIPW, h_ato, pi=pi, **arm_means(zero, ds.X)).value
    ds2 = ObservationalDataset(X=ds.X, A=ds.A, Y=ds.Y * scale)
    om2 = fit_outcome(ds2, om.main_design, om.interaction_design)
    scaled = _all_pipeline_values(ds2, om2, pi)
    np.testing.assert_allclose(scaled, scale * base, rtol=1e-9, atol=1e-9)
    scaled_unnorm = fill_one(ds2, EstimatorKind.AIPW, h_ato, pi=pi, **arm_means(zero, ds2.X)).value
    assert scaled_unnorm == pytest.approx(scale * base_unnorm, rel=1e-9)
    assert base_unnorm == pytest.approx(
        unnormalized_ipw_oracle(ds, evaluate_h(overlap_effect(), ds.X, pi), pi), rel=1e-12
    )


@pytest.mark.parametrize("correct", [True, False])
def test_overlap_weights_balance_the_propensity_design_exactly(monkeypatch, correct):
    # Li, Morgan & Zaslavsky (2018): with a logistic fit that has an
    # intercept, the score equations make the overlap-weighted arm means of
    # every design column equal, up to the fit's score tolerance (tightened
    # here so the gap is rounding). Whole-population weights do not balance.
    monkeypatch.setattr(wate.models, "SCORE_TOL", 1e-10)
    design = propensity_design(correct)
    for seed in range(3):
        ds = generate_dataset(1, 300, np.random.default_rng(seed)).observed()
        pm = fit_propensity(ds, design)
        for j, column in enumerate(design.matrix(ds.X).T):
            as_outcome = ObservationalDataset(X=ds.X, A=ds.A, Y=column)
            ato = fill_one(as_outcome, EstimatorKind.IPW_NORMALIZED, overlap_effect(), pi=pm.pi)
            ate = fill_one(as_outcome, EstimatorKind.IPW_NORMALIZED, average_effect(), pi=pm.pi)
            assert abs(ato.value) <= 1e-10, (seed, design.names[j], ato.value)
            assert abs(ate.value) >= 1e-3, (seed, design.names[j], ate.value)


# --- dispatch ----------------------------------------------------------------


def test_dispatch_routes_aipw_to_closed_forms():
    ds, om, pi = random_instance(13, n=50)
    routed = fill_one(ds, EstimatorKind.AIPW, effect_on_treated(), pi=pi, **arm_means(om, ds.X))
    assert routed.estimator is EstimatorKind.DR_LINEAR_IN_PI
    assert routed.estimand.label == "att"
    assert routed.value == pytest.approx(att_dr(ds, om, pi), rel=1e-14)
    assert routed.value == pytest.approx(att_dr_oracle(ds, om, pi), rel=1e-12)
    lin = fill_one(ds, EstimatorKind.AIPW, linear_in_propensity(1, 3), pi=pi, **arm_means(om, ds.X))
    assert lin.estimator is EstimatorKind.DR_LINEAR_IN_PI


def test_plain_aipw_changes_the_formula():
    # The generic augmented form with h evaluated at the fitted propensity is
    # a different estimator from the closed form the dispatcher routes to.
    ds, om, pi = random_instance(14, n=50)
    routed = fill_one(ds, EstimatorKind.AIPW, effect_on_treated(), pi=pi, **arm_means(om, ds.X))
    plain = fill_one(ds, EstimatorKind.AIPW, fixed_h(pi, "pi"), pi=pi, **arm_means(om, ds.X))
    assert plain.estimator is EstimatorKind.AIPW
    assert plain.value != routed.value


def test_dispatch_regression_att_needs_no_propensity():
    ds, om, _ = random_instance(15, n=50)
    got = fill_one(ds, EstimatorKind.REGRESSION, effect_on_treated(), **arm_means(om, ds.X))
    assert got.estimator is EstimatorKind.REGRESSION
    assert got.value == pytest.approx(att_regression_oracle(ds, om), rel=1e-12)


def test_dispatch_missing_models():
    ds, om, pi = random_instance(16, n=50)
    with pytest.raises(MissingModelError):
        fill_one(ds, EstimatorKind.AIPW, overlap_effect(), **arm_means(om, ds.X))
    with pytest.raises(MissingModelError):
        fill_one(ds, EstimatorKind.AIPW, overlap_effect(), pi=pi)
    with pytest.raises(MissingModelError):
        fill_one(ds, EstimatorKind.REGRESSION, overlap_effect(), **arm_means(om, ds.X))
    with pytest.raises(MissingModelError):
        fill_one(ds, EstimatorKind.IPW_NORMALIZED, average_effect())


def test_dispatch_rejects_closed_form_for_overlap():
    ds, om, pi = random_instance(17, n=50)
    with pytest.raises(EstimationError):
        fill_one(ds, EstimatorKind.DR_LINEAR_IN_PI, overlap_effect(), pi=pi, **arm_means(om, ds.X))


def test_zero_mass_h_rejected():
    ds, om, pi = random_instance(18, n=50)
    with pytest.raises(EstimationError):
        fill_one(ds, EstimatorKind.REGRESSION, fixed_h(np.zeros(ds.n)), **arm_means(om, ds.X))


def test_negative_h_rejected():
    ds, om, pi = random_instance(19, n=50)
    h = np.ones(ds.n)
    h[0] = -0.5
    with pytest.raises(NegativeTargetError):
        fill_one(ds, EstimatorKind.REGRESSION, fixed_h(h), **arm_means(om, ds.X))


def test_bad_pi_hat_rejected():
    ds, om, _ = random_instance(20, n=50)
    with pytest.raises(EstimationError):
        fill_one(ds, EstimatorKind.AIPW, average_effect(), pi=np.ones(ds.n), **arm_means(om, ds.X))


# --- invariance and equivariance --------------------------------------------


_TARGETS = (
    average_effect(),
    effect_on_treated(),
    effect_on_controls(),
    overlap_effect(),
    linear_in_propensity(0.5, 1.5),
)
_KINDS = (
    EstimatorKind.REGRESSION,
    EstimatorKind.IPW_NORMALIZED,
    EstimatorKind.AIPW,
)


@given(seed=st.integers(0, 2**16), order=st.permutations(range(40)))
def test_row_permutation_leaves_every_estimate_unchanged(seed, order):
    ds, om, pi = random_instance(seed, n=40)
    order = np.array(order)
    shuffled = ObservationalDataset(X=ds.X[order], A=ds.A[order], Y=ds.Y[order])
    for kind in _KINDS:
        for target in _TARGETS:
            before = fill_one(ds, kind, target, pi=pi, **arm_means(om, ds.X)).value
            after = fill_one(
                shuffled, kind, target, pi=pi[order], **arm_means(om, shuffled.X)
            ).value
            assert close(before, after), (kind, target.label)


@given(
    seed=st.integers(0, 2**16),
    c=st.floats(0.25, 3.0),
    negate=st.booleans(),
    d=st.floats(-5.0, 5.0),
)
def test_affine_outcome_map_scales_every_estimate(seed, c, negate, d):
    # Y -> c*Y + d with the outcome model refitted: the shift cancels within
    # every arm contrast and the scale factors out.
    c = -c if negate else c
    ds, om, pi = random_instance(seed, n=60)
    ds2 = ObservationalDataset(X=ds.X, A=ds.A, Y=c * ds.Y + d)
    om2 = fit_outcome(ds2, om.main_design, om.interaction_design)
    for kind in _KINDS:
        for target in _TARGETS:
            before = fill_one(ds, kind, target, pi=pi, **arm_means(om, ds.X)).value
            after = fill_one(ds2, kind, target, pi=pi, **arm_means(om2, ds2.X)).value
            assert close(after, c * before, tol=1e-9), (kind, target.label)


# --- one fill equals many single estimates -----------------------------------


@given(
    stack=st.integers(1, 5),
    rows=st.integers(1, 8),
    n=st.integers(0, 12345),
    seed=st.integers(0, 2**32 - 1),
)
def test_each_row_sum_of_a_block_is_the_rows_own_sum(stack, rows, n, seed):
    # The fill sums each target's terms on each dataset of a stack as one
    # row of a C-contiguous (datasets, targets, n) block, and its per-arm
    # ESS as one row of a dataset's columns on that arm. A cell gets the
    # bits of its own 1-D sum only while numpy sums each row of a block as
    # it sums that row alone.
    rng = np.random.default_rng(seed)
    shape = (stack, rows, n)
    block = rng.standard_normal(shape) * np.exp2(rng.integers(-30, 30, size=shape))
    arm = np.compress(rng.random(n) < 0.5, block[-1], axis=1)
    assert block.flags.c_contiguous and arm.flags.c_contiguous
    assert [s.hex() for s in block.sum(axis=2).ravel()] == [
        r.sum().hex() for r in block.reshape(stack * rows, n)
    ]
    assert [s.hex() for s in arm.sum(axis=1)] == [r.sum().hex() for r in arm]


def _x2_squared(X):
    return X[:, 1] ** 2


_NAMES = ("x1", "x2", "x3", "x4", "x5")
# n = 12 makes some propensity and outcome fits fail.
_FILL_DATASETS = tuple(
    generate_dataset(model, n, np.random.default_rng(n)) for model, n in ((1, 12), (2, 40), (1, 200))
)
_FILL_TARGETS = _TARGETS + (
    linear_in_propensity(-1.0, 0.5),
    covariate_target(_x2_squared, "x2^2"),
)
_FILL_DESIGNS = (None, main_effects(_NAMES), propensity_design(True))

_pipelines = st.builds(
    EstimationPipeline,
    estimand=st.sampled_from(_FILL_TARGETS),
    kind=st.sampled_from(tuple(EstimatorKind)),
    pi_design=st.sampled_from(_FILL_DESIGNS),
    m_design=st.sampled_from(_FILL_DESIGNS),
    truncate=st.sampled_from((None, (1.0, 99.0))),
)


def _vectors_to_supply(ds, which):
    """Keywords of :func:`fill_cells` supplying synthetic vectors on ``ds``:
    ``which`` of ``pi`` and ``m`` (``m1`` and ``m0``)."""
    rng = np.random.default_rng(ds.n)
    vectors = {"pi": rng.uniform(0.1, 0.9, ds.n), "m1": rng.normal(size=ds.n)}
    vectors["m0"] = vectors["m1"] - rng.normal(size=ds.n)
    return {k: v for k, v in vectors.items() if k[0] in which}


def _alone(ds, p, supplied):
    """``p`` filled alone by :func:`fill_cells`, from the vectors of its own
    fits or else the ``supplied`` ones, given to a pipeline that fits no
    model."""
    pi, m1, m0 = (supplied.get(k) for k in ("pi", "m1", "m0"))
    if p.pi_design is not None:
        try:
            pi = fit_propensity(ds, p.pi_design).pi
        except WateError as exc:
            return FitFailure("propensity", exc)
        if p.truncate is not None:
            pi = truncate_propensity(pi, *p.truncate)
    if p.m_design is not None:
        try:
            om = fit_outcome(ds, p.m_design, p.m_interaction)
        except WateError as exc:
            return FitFailure("outcome", exc)
        m1, m0 = om.m1, om.m0
    (result,) = fill_cells(ds, [EstimationPipeline(p.estimand, p.kind)], pi=pi, m1=m1, m0=m0)
    return result


def _bits(result):
    if isinstance(result, WateError):
        return type(result), str(result)
    return result.estimator, result.estimand.label, result.value.hex()


@given(
    which=st.integers(0, len(_FILL_DATASETS) - 1),
    pipelines=st.lists(_pipelines, min_size=1, max_size=8),
    supply=st.sampled_from(("", "p", "m", "pm")),
)
def test_one_fill_equals_each_pipeline_estimated_alone(which, pipelines, supply):
    # Cells that share fits, supplied vectors and terms in one pass give, to
    # the last bit, what each pipeline gives on its own vectors, and fail
    # with the same error.
    ds = _FILL_DATASETS[which]
    supplied = _vectors_to_supply(ds, supply)
    expected = [_bits(_alone(ds, p, supplied)) for p in pipelines]
    assert [_bits(r) for r in fill_cells(ds, pipelines, **supplied)] == expected
    assert [_bits(r) for r in fill_cells(ds, plan_cells(pipelines), **supplied)] == expected


# --- work done by one planned fill -------------------------------------------


def _study_plan():
    from wate.simulation import SimulationDesign, _cell_pipeline, study_cells

    design = SimulationDesign(outcome_model=1)
    return plan_cells([_cell_pipeline(design, cell) for cell in study_cells(design)])


def _default_report_plan():
    from wate.cli import build_report_task

    task = build_report_task(
        ["unweighted", "regression", "ipw", "aipw"], ["ate", "att", "atc", "ato"],
        _NAMES, main_effects(_NAMES), main_effects(_NAMES), None, None,
    )
    return task.plan


@pytest.mark.parametrize(
    "make_plan, expected",
    [
        # 9 distinct (propensity fit, target) pairs read h: (none, ate) for
        # the regression rows and 2 propensity fits x 4 targets.
        (_study_plan, {"propensity": 2, "outcome": 2, "h": 9, "estimate": 30, "hash": 0}),
        # (none, ate), read by the unweighted and regression cells, and 1
        # propensity fit x 4 targets.
        (_default_report_plan, {"propensity": 1, "outcome": 1, "h": 5, "estimate": 12, "hash": 0}),
    ],
)
def test_planned_fill_computes_each_shared_term_once(monkeypatch, make_plan, expected):
    import wate.estimators
    from wate.design import DesignSpec

    plan = make_plan()
    ds = generate_dataset(1, 300, np.random.default_rng(5))
    calls = dict.fromkeys(expected, 0)

    def counting(what, fn, count=lambda *args: 1):
        def wrapper(*args, **kwargs):
            calls[what] += count(*args)
            return fn(*args, **kwargs)

        return wrapper

    # The fits of a stack are one call per working model; count the
    # replicates each call fits.
    for what, name in (("propensity", "_fit_propensities"), ("outcome", "_fit_outcomes")):
        fit = counting(what, getattr(wate.estimators, name), lambda stack, *_: len(stack.A))
        monkeypatch.setattr(wate.estimators, name, fit)
    for what, name in (("h", "_h_values"), ("estimate", "PointEstimate")):
        monkeypatch.setattr(wate.estimators, name, counting(what, getattr(wate.estimators, name)))
    monkeypatch.setattr(DesignSpec, "__hash__", counting("hash", DesignSpec.__hash__))
    results = fill_cells(ds, plan)
    assert all(not isinstance(r, WateError) for r in results)
    assert calls == expected


def test_a_fill_leaves_no_cyclic_garbage():
    # Each pass's blocks are freed by reference counting when the pass ends.
    # Blocks in a reference cycle would wait for the cycle collector, and a
    # study would hold the blocks of many replicates at once. On 12 rows 19
    # of the 30 cells fail: a failed cell's error is kept without its
    # traceback, whose frames would hold the pass.
    plan = _study_plan()
    for n, seed, failed in ((200, 5, 0), (12, 1, 19)):
        ds = generate_dataset(1, n, np.random.default_rng(seed))
        gc.collect()
        gc.disable()
        try:
            assert np.isnan(_cell_value_rows(_Stack.of(ds), plan)[0]).sum() == failed
            results = fill_cells(ds, plan)
            assert sum(isinstance(r, WateError) for r in results) == failed
            del results
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_a_fill_keeps_one_block_alive(monkeypatch):
    # The study's first stack at n = 1000 (13 replicates) under the study
    # plan: 4 fits, then the blocks of no propensity fit (1 target) and of
    # the two propensity fits (4 targets each), in that order. A block is
    # dropped before the next one is built, so no earlier block is alive at
    # a build, and the fill's traced peak, its fits' vectors and its one
    # live block's terms included, stays within 30.5 length-(b n) vectors
    # (29.7 measured, numpy 2.4, in a block's augmented term). A pass
    # that kept its blocks to the end peaks near 44.
    data, _ = _study_draw()
    stack = _stacked(data)
    b, n = stack.A.shape
    plan = _study_plan()
    _cell_value_rows(stack, plan)  # LAPACK's workspace queries, cached
    built = []
    init = wate.estimators._Block.__init__

    def recording_init(self, q, p):
        assert [block() for block in built] == [None] * len(built)
        init(self, q, p)
        built.append(weakref.ref(self))

    monkeypatch.setattr(wate.estimators._Block, "__init__", recording_init)
    tracemalloc.start()
    try:
        rows = _cell_value_rows(stack, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(built) == 3 and not np.isnan(rows).any()
    assert peak <= 30.5 * 8 * b * n, peak / (8 * b * n)


# --- the unweighted difference, cell applicability, supplied vectors --------


@pytest.mark.parametrize("which", range(len(_FILL_DATASETS)))
def test_unweighted_is_the_raw_difference_in_arm_means(which):
    ds = _FILL_DATASETS[which]
    A, Y = ds.A, ds.Y
    expected = float(np.mean(Y[A == 1]) - np.mean(Y[A == 0]))
    got = fill_one(ds, EstimatorKind.UNWEIGHTED, average_effect())
    assert got.value.hex() == expected.hex()


def test_a_stacked_unweighted_difference_has_np_means_bits():
    # 60 replicates at n = 2 to 300 whose treated arm holds 1 to n - 1 rows,
    # outcomes at scales from 1e-3 to 1e6, in one stack per n.
    rng = np.random.default_rng(37)
    plan = plan_cells([EstimationPipeline(average_effect(), EstimatorKind.UNWEIGHTED)])
    for n in (2, 3, 17, 300):
        A = np.zeros((15, n))
        for row, treated in zip(A, rng.integers(1, n, 15)):
            row[rng.permutation(n)[:treated]] = 1.0
        Y = rng.standard_normal((15, n)) * 10.0 ** rng.uniform(-3, 6, (15, 1))
        values = _cell_value_rows(_Stack(np.zeros((15, n, 1)), A, Y), plan)
        for (value,), a, y in zip(values, A, Y):
            assert value.tobytes() == (np.mean(y[a == 1.0]) - np.mean(y[a == 0.0])).tobytes()


def test_unweighted_refuses_an_empty_arm_and_other_targets():
    ds, _, _ = random_instance(21, n=20)
    treated_only = ObservationalDataset(X=ds.X, A=np.ones(ds.n), Y=ds.Y)
    with pytest.raises(EstimationError, match="^an arm is empty$"):
        fill_one(treated_only, EstimatorKind.UNWEIGHTED, average_effect())
    with pytest.raises(EstimationError, match="'att'"):
        fill_one(ds, EstimatorKind.UNWEIGHTED, effect_on_treated())


def test_has_formula_names_the_cells_a_row_fills():
    targets = (
        average_effect(), effect_on_treated(), effect_on_controls(), overlap_effect(),
        linear_in_propensity(1.0, -1.0), fixed_h(np.ones(3)),
    )
    expected = {
        EstimatorKind.UNWEIGHTED: [True, False, False, False, False, False],
        EstimatorKind.REGRESSION: [True, True, True, False, False, True],
        EstimatorKind.IPW_NORMALIZED: [True] * 6,
        EstimatorKind.AIPW: [True] * 6,
        EstimatorKind.DR_LINEAR_IN_PI: [False, True, True, False, True, False],
    }
    for kind, row in expected.items():
        assert [has_formula(kind, t) for t in targets] == row, kind


def _ipw_oracle(ds, target, pi):
    a, y, h = ds.A, ds.Y, evaluate_h(target, ds.X, pi)
    tw = [a[i] * h[i] / pi[i] for i in range(ds.n)]
    cw = [(1 - a[i]) * h[i] / (1 - pi[i]) for i in range(ds.n)]
    return (
        math.fsum(tw[i] * y[i] for i in range(ds.n)) / math.fsum(tw)
        - math.fsum(cw[i] * y[i] for i in range(ds.n)) / math.fsum(cw)
    )


def test_supplied_and_fitted_propensities_keep_their_own_terms():
    # One fill reads a fitted propensity in some cells and the supplied one in
    # the others, each for two targets: every estimate matches its own oracle,
    # which fails if the two propensities shared a block or one reused a
    # target's weights.
    ds, _, supplied = random_instance(22)
    design = main_effects(ds.covariate_names)
    fitted = fit_propensity(ds, design).pi
    pipelines = [
        EstimationPipeline(target, EstimatorKind.IPW_NORMALIZED, pi_design=pi_design)
        for pi_design in (design, None)
        for target in (average_effect(), overlap_effect())
    ]
    for p, got in zip(pipelines, fill_cells(ds, pipelines, pi=supplied)):
        pi = supplied if p.pi_design is None else fitted
        assert close(got.value, _ipw_oracle(ds, p.estimand, pi)), (p.estimand.label, pi is fitted)


def test_a_fit_failure_survives_pickling():
    # A fill_cells result must come back from a worker process: each failure
    # it returns, a rank-deficient outcome design and a propensity fit
    # pinned at the clamp bounds (treatment separable by x1), pickles to an
    # error of the same type, message and fit error.
    rng = np.random.default_rng(53)
    x = rng.standard_normal(40)
    A = (x > 0).astype(float)
    ds = ObservationalDataset(X=np.column_stack([x, 2.0 * x]), A=A, Y=x + A)
    design = main_effects(ds.covariate_names)
    results = fill_cells(ds, [
        EstimationPipeline(average_effect(), EstimatorKind.REGRESSION, m_design=design),
        EstimationPipeline(
            average_effect(), EstimatorKind.IPW_NORMALIZED, pi_design=main_effects(("x1",))
        ),
    ])
    assert [type(r.error).__name__ for r in results] == [
        "RankDeficiencyError", "ConvergenceError"
    ]
    for failure in results:
        assert type(failure) is FitFailure
        copy = pickle.loads(pickle.dumps(failure))
        assert type(copy) is FitFailure and str(copy) == str(failure)
        assert copy.stage == failure.stage
        assert type(copy.error) is type(failure.error) and str(copy.error) == str(failure.error)


def test_supplied_vectors_are_checked():
    ds, om, pi = random_instance(23)
    cell = [EstimationPipeline(average_effect(), EstimatorKind.AIPW)]
    m1, m0 = predict_outcome(om, ds.X, 1), predict_outcome(om, ds.X, 0)
    with pytest.raises(EstimationError, match="supplied together$"):
        fill_cells(ds, cell, pi=pi, m1=m1)
    with pytest.raises(EstimationError, match="^arm mean vector has length 39, expected 40$"):
        fill_cells(ds, cell, pi=pi, m1=m1, m0=m0[1:])
    with pytest.raises(EstimationError, match="^propensity vector has length 39, expected 40$"):
        fill_cells(ds, cell, pi=pi[1:], m1=m1, m0=m0)
    with pytest.raises(EstimationError, match="inside"):
        fill_cells(ds, cell, pi=np.where(ds.A == 1.0, 1.0, pi))
    # Without supplied vectors, the cell fits no model and fails as before.
    (missing,) = fill_cells(ds, cell)
    assert isinstance(missing, MissingModelError)
    assert str(missing) == "augmented estimator needs a propensity model or a supplied pi"
