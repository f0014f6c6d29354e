"""The Monte Carlo population values pinned to the last bit.

The report goldens use ``--truth-draws 100000``, a single summation chunk, so
they cannot catch a change in how a multi-chunk truth is summed.
``tests/golden/truth.json`` holds ``float.hex`` of the four values and their
four Monte Carlo standard errors for:

* ``true_estimands(m, 10**6, _truth_stream(m))`` for outcome models 1 and 2,
  integrated here on the fixed truth stream. ``simulation`` pins these values
  as constants, the ones every study compares against, and a second test
  checks those constants against the file;
* ``true_estimands(m, 2**19 + 3, np.random.default_rng(0))``, which crosses a
  chunk boundary and ends part-way through a block of draws.

To re-record the file after a change that is meant to alter the values, run
``PYTHONPATH=src python tests/test_truth_golden.py`` from the repository root.
"""

import json
from pathlib import Path

import numpy as np

from wate.simulation import (
    _PINNED_TRUTH,
    DEFAULT_TRUTH_DRAWS,
    _truth_stream,
    true_estimands,
)

TRUTH = Path(__file__).resolve().parent / "golden" / "truth.json"
KEYS = ("ate", "att", "atc", "ato")


def _record(truth):
    return {
        "draws": truth.draws,
        "value": {k: truth.value(k).hex() for k in KEYS},
        "mc_se": {k: truth.mc_se(k).hex() for k in KEYS},
    }


def current_truths():
    out = {}
    for model in (1, 2):
        out[f"reference/model{model}"] = _record(
            true_estimands(model, 10**6, _truth_stream(model))
        )
        out[f"rng0/model{model}"] = _record(
            true_estimands(model, 2**19 + 3, np.random.default_rng(0))
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
    assert sorted(_PINNED_TRUTH) == [(1, 10**6), (2, 10**6)]
    for (model, draws), truth in _PINNED_TRUTH.items():
        assert truth.outcome_model == model
        assert _record(truth) == expected[f"reference/model{model}"], model


if __name__ == "__main__":
    TRUTH.write_text(json.dumps(current_truths(), indent=1, sort_keys=True) + "\n")
