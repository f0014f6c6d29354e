"""The working-model fits pinned to the last bit.

``tests/golden/cells.json`` pins estimates only, so a change in a fit's
coefficients, log likelihood or residual variance that leaves every
estimate's bits alone would pass it. ``tests/golden/fits.json`` holds, for
each fit, a SHA-256 of the bytes of ``alpha`` and ``pi`` (propensity) or
``beta``, ``m1`` and ``m0`` (outcome), ``float.hex`` of the log likelihood or
the residual variance and the Newton iteration count, or the type and
message of the error the fit failed with, next to the record of the last
iterate a :class:`ConvergenceError` carries. The cases:

* both simulation propensity designs and both outcome design pairs, on one
  generated dataset of each outcome model at n = 12 (where fits fail), 40,
  1000 and 5000;
* the same four fits on a resample with repeated rows of the n = 1000
  dataset of outcome model 2.

To re-record the file after a change that is meant to alter a fit, run
``PYTHONPATH=src python tests/test_fits_golden.py`` from the repository root.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from wate.errors import WateError
from wate.models import fit_outcome, fit_propensity
from wate.simulation import generate_dataset, outcome_design, propensity_design

FITS = Path(__file__).resolve().parent / "golden" / "fits.json"


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()


def _fits(ds, model):
    """(fit name, thunk) for the four working-model fits of one dataset."""
    for correct in (True, False):
        tag = "correct" if correct else "misspecified"
        yield f"propensity/{tag}", lambda c=correct: fit_propensity(ds, propensity_design(c))
        main, inter = outcome_design(correct, model)
        yield f"outcome/{tag}", lambda m=main, i=inter: fit_outcome(ds, m, i)


def _record(fit):
    try:
        result = fit()
    except WateError as err:
        failure = {"error": type(err).__name__, "message": str(err)}
        if getattr(err, "model", None) is not None:
            failure["model"] = _record_model(err.model)
        return failure
    return _record_model(result)


def _record_model(result):
    if hasattr(result, "alpha"):
        return {
            "alpha": _digest(result.alpha),
            "pi": _digest(result.pi),
            "log_likelihood": result.log_likelihood.hex(),
            "iterations": result.iterations,
            "converged": result.converged,
        }
    return {
        "beta": _digest(result.beta),
        "m1": _digest(result.m1),
        "m0": _digest(result.m0),
        "residual_variance": result.residual_variance.hex(),
    }


def _datasets():
    """(case name, dataset, outcome model) for every pinned dataset."""
    for model in (1, 2):
        for n in (12, 40, 1000, 5000):
            ds = generate_dataset(model, n, np.random.default_rng(n))
            yield f"model{model}/n{n}", ds, model
            if model == 2 and n == 1000:
                idx = np.random.default_rng(7).integers(0, n, size=n)
                yield f"model{model}/n{n}/resample", ds.replace_rows(idx), model


def current_fits():
    return {
        f"{case}/{name}": _record(fit)
        for case, ds, model in _datasets()
        for name, fit in _fits(ds, model)
    }


def test_every_fit_matches_the_recorded_bits():
    expected = json.loads(FITS.read_text())
    actual = current_fits()
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


if __name__ == "__main__":
    FITS.write_text(json.dumps(current_fits(), indent=1, sort_keys=True) + "\n")
