import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wate.errors import NegativeTargetError, PropensityRequiredError, TargetError
from wate.targets import (
    average_effect,
    covariate_target,
    effect_on_controls,
    effect_on_treated,
    evaluate_h,
    linear_in_propensity,
    overlap_effect,
)

X2 = np.zeros((2, 1))
PI2 = np.array([0.2, 0.8])


def balancing_weights(target, X, pi):
    """The arm weights ``(h/pi, h/(1 - pi))`` the weighting estimator forms
    from a target's ``h``, and ``h`` itself."""
    h = evaluate_h(target, X, pi)
    return h / pi, h / (1.0 - pi), h


def test_h_values_by_kind():
    np.testing.assert_array_equal(evaluate_h(average_effect(), X2), [1.0, 1.0])
    np.testing.assert_allclose(evaluate_h(effect_on_treated(), X2, PI2), PI2)
    np.testing.assert_allclose(evaluate_h(effect_on_controls(), X2, PI2), 1 - PI2)
    np.testing.assert_allclose(
        evaluate_h(overlap_effect(), X2, PI2), [0.16, 0.16]
    )


def test_overlap_weights_flip_the_propensity():
    w1, w0, _ = balancing_weights(overlap_effect(), X2, PI2)
    np.testing.assert_allclose(w1, 1 - PI2)
    np.testing.assert_allclose(w0, PI2)


def test_whole_population_weights_are_inverse_probabilities():
    w1, w0, _ = balancing_weights(average_effect(), X2, np.array([0.5, 0.5]))
    np.testing.assert_allclose(w1, [2.0, 2.0])
    np.testing.assert_allclose(w0, [2.0, 2.0])


def test_treated_target_weights():
    pi = np.array([0.25, 0.75])
    w1, w0, _ = balancing_weights(effect_on_treated(), X2, pi)
    np.testing.assert_allclose(w1, [1.0, 1.0])
    np.testing.assert_allclose(w0, pi / (1 - pi))


def test_linear_generalizes_the_named_targets():
    pi = np.array([0.3, 0.6, 0.9])
    X = np.zeros((3, 1))
    np.testing.assert_allclose(
        evaluate_h(linear_in_propensity(0, 1), X, pi),
        evaluate_h(effect_on_treated(), X, pi),
    )
    np.testing.assert_allclose(
        evaluate_h(linear_in_propensity(1, -1), X, pi),
        evaluate_h(effect_on_controls(), X, pi),
    )
    np.testing.assert_allclose(
        evaluate_h(linear_in_propensity(1, 0), X, pi),
        evaluate_h(average_effect(), X),
    )


def test_propensity_required():
    with pytest.raises(PropensityRequiredError):
        evaluate_h(effect_on_treated(), X2)
    with pytest.raises(PropensityRequiredError):
        evaluate_h(linear_in_propensity(1, 1), X2)


def test_linear_rejects_zero_pair():
    with pytest.raises(ValueError):
        linear_in_propensity(0, 0)


def test_linear_negative_h_detected():
    with pytest.raises(NegativeTargetError):
        evaluate_h(linear_in_propensity(0.5, -1), X2, np.array([0.2, 0.9]))


def test_covariate_target():
    tf = covariate_target(_first_column_squared, "x1^2")
    X = np.array([[2.0], [-3.0]])
    np.testing.assert_allclose(evaluate_h(tf, X), [4.0, 9.0])
    assert not tf.depends_on_propensity


def test_covariate_target_negative_rejected():
    tf = covariate_target(_first_column, "x1")
    with pytest.raises(NegativeTargetError):
        evaluate_h(tf, np.array([[1.0], [-1.0]]))


def _first_column_squared(X):
    return X[:, 0] ** 2


def _first_column(X):
    return X[:, 0]


def test_pi_out_of_range_rejected():
    for bad in ([0.0, 0.5], [0.5, 1.0], [-0.1, 0.5]):
        with pytest.raises(TargetError):
            evaluate_h(effect_on_treated(), X2, np.array(bad))


def test_pi_length_mismatch():
    with pytest.raises(TargetError):
        evaluate_h(effect_on_treated(), X2, np.array([0.5]))



targets_with_pi = st.sampled_from(
    [
        average_effect(),
        effect_on_treated(),
        effect_on_controls(),
        overlap_effect(),
        linear_in_propensity(1, 1),
        linear_in_propensity(2, -1),
    ]
)


@given(
    pi=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=30),
    target=targets_with_pi,
)
def test_weight_identities(pi, target):
    # The defining relations: w1*pi and w0*(1-pi) both reproduce h.
    pi = np.array(pi)
    X = np.zeros((pi.shape[0], 1))
    w1, w0, h = balancing_weights(target, X, pi)
    np.testing.assert_allclose(w1 * pi, h, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(w0 * (1 - pi), h, rtol=1e-12, atol=1e-15)
    assert np.all(h >= 0)


@given(pi=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=30))
def test_overlap_weights_bounded_by_one(pi):
    pi = np.array(pi)
    w1, w0, _ = balancing_weights(overlap_effect(), np.zeros((pi.shape[0], 1)), pi)
    assert np.all(w1 <= 1.0 + 1e-12)
    assert np.all(w0 <= 1.0 + 1e-12)
