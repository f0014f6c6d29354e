"""The Monte Carlo population values pinned to the last bit.

``simulation`` holds the population values every study compares against as
constants; the library has no integrator. ``integrate`` below is the Monte
Carlo integration that produced them, and ``tests/golden/truth.json`` holds
``float.hex`` of its four values and four Monte Carlo standard errors for:

* ``integrate(m, 10**6, truth_stream(m))`` for outcome models 1 and 2, the
  values ``simulation`` pins; a second test checks those constants against
  the file;
* ``integrate(m, 2**19 + 3, np.random.default_rng(0))``, which crosses a
  chunk boundary.

To re-record the file after a change that is meant to alter the values, run
``PYTHONPATH=src python tests/test_truth_golden.py`` from the repository root.
"""

import json
from pathlib import Path

import numpy as np

from wate.simulation import (
    _PINNED_TRUTH,
    DEFAULT_TRUTH_DRAWS,
    TrueEstimands,
    treatment_effect,
    true_propensity,
)

TRUTH = Path(__file__).resolve().parent / "golden" / "truth.json"
KEYS = ("ate", "att", "atc", "ato")

# Entropy of the stream behind the pinned values: outcome model m draws with
# spawn key (m,). A study replicate r draws from its seed with spawn key (r,),
# so the two streams meet only for seed 196883741 and r == m.
TRUTH_ENTROPY = 196_883_741

# Draws per summation chunk. Every sum runs over one chunk, so the chunk is
# part of the values' last bits.
CHUNK = 1 << 19

WEIGHTS = {
    "ate": np.ones_like,
    "att": lambda pi: pi,
    "atc": lambda pi: 1.0 - pi,
    "ato": lambda pi: pi * (1.0 - pi),
}


def truth_stream(outcome_model):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=TRUTH_ENTROPY, spawn_key=(outcome_model,))
    )


def integrate(outcome_model, draws, rng):
    """Monte Carlo integration of the four standard contrasts.

    Each contrast is a weighted mean E[h*effect]/E[h]; its standard error
    comes from the variance of the per-draw influence values
    (h*effect - tau*h)/E[h].
    """
    sums = {key: np.zeros(5) for key in WEIGHTS}
    for done in range(0, draws, CHUNK):
        X = rng.standard_normal((min(CHUNK, draws - done), 5))
        pi = true_propensity(X)
        delta = treatment_effect(outcome_model, X)
        for key, weight in WEIGHTS.items():
            h = weight(pi)
            hd = h * delta
            sums[key] += [np.sum(h), np.sum(hd), np.sum(h * h), np.sum(hd * hd), np.sum(h * hd)]
    values, ses = {}, {}
    for key, (s_h, s_hd, s_h2, s_hd2, s_hhd) in sums.items():
        tau = s_hd / s_h
        # E[(h*delta - tau*h)^2]; its first moment is zero by the definition
        # of tau.
        second = (s_hd2 - 2.0 * tau * s_hhd + tau * tau * s_h2) / draws
        values[key] = float(tau)
        ses[key] = float(np.sqrt(max(second, 0.0) / draws) / (s_h / draws))
    return TrueEstimands(
        outcome_model=outcome_model,
        draws=draws,
        **values,
        **{"se_" + key: se for key, se in ses.items()},
    )


def _record(truth):
    return {
        "draws": truth.draws,
        "value": {k: truth.value(k).hex() for k in KEYS},
        "mc_se": {k: truth.mc_se(k).hex() for k in KEYS},
    }


def current_truths():
    out = {}
    for model in (1, 2):
        out[f"reference/model{model}"] = _record(integrate(model, 10**6, truth_stream(model)))
        out[f"rng0/model{model}"] = _record(
            integrate(model, 2**19 + 3, np.random.default_rng(0))
        )
    return out


def test_every_population_value_matches_the_recorded_bits():
    expected = json.loads(TRUTH.read_text())
    actual = current_truths()
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


def test_pinned_population_values_match_the_recorded_bits():
    expected = json.loads(TRUTH.read_text())
    assert DEFAULT_TRUTH_DRAWS == 10**6
    assert sorted(_PINNED_TRUTH) == [1, 2]
    for model, truth in _PINNED_TRUTH.items():
        assert truth.outcome_model == model
        assert _record(truth) == expected[f"reference/model{model}"], model


if __name__ == "__main__":
    TRUTH.write_text(json.dumps(current_truths(), indent=1, sort_keys=True) + "\n")
