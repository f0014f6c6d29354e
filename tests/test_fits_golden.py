"""The working-model fits pinned to the last bit.

``tests/golden/cells.json`` pins estimates only, so a change in a fit's
coefficients or log likelihood that leaves every estimate's bits alone
would pass it. ``tests/golden/fits.json`` holds, for each fit, a SHA-256 of
the bytes of ``alpha`` and ``pi`` (propensity) or ``beta``, ``m1`` and
``m0`` (outcome), ``float.hex`` of the log likelihood and the Newton
iteration count, or the type and message of the error the fit failed with,
next to the record of the last iterate a :class:`ConvergenceError` carries. The cases:

* both simulation propensity designs and both outcome design pairs, on one
  generated dataset of each outcome model at n = 12 (where fits fail), 40,
  1000 and 5000;
* the same four fits on a resample with repeated rows of the n = 1000
  dataset of outcome model 2;
* one propensity fit for each exit of the Newton loop that those datasets
  do not reach: steps that halve, ``MAX_ITER`` updates with and without
  halving, a singular information matrix and a duplicated column.

To re-record the file after a change that is meant to alter a fit, run
``PYTHONPATH=src python tests/test_fits_golden.py`` from the repository root.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from wate.data import ObservationalDataset
from wate.design import main_effects
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
    }


def _datasets():
    """(case name, dataset, outcome model) for every pinned dataset."""
    for model in (1, 2):
        for n in (12, 40, 1000, 5000):
            ds = generate_dataset(model, n, np.random.default_rng(n))
            yield f"model{model}/n{n}", ds, model
            if model == 2 and n == 1000:
                idx = np.random.default_rng(7).integers(0, n, size=n)
                resample = ObservationalDataset(
                    ds.X[idx], ds.A[idx], ds.Y[idx], ds.covariate_names
                )
                yield f"model{model}/n{n}/resample", resample, model


def _one_covariate(x, a):
    return ObservationalDataset(X=np.reshape(x, (-1, 1)), A=a, Y=np.zeros(len(a)))


def _irls_cases():
    """(case name, dataset, design) for the propensity fits that end the
    Newton loop in the ways the simulation datasets do not."""
    x1 = main_effects(("x1",))
    # Full Newton steps that would lower the log likelihood are halved, on
    # the way to probabilities pinned at the clamp bounds.
    yield "irls/halving", generate_dataset(1, 20, np.random.default_rng(40)), propensity_design(True)
    # A covariate of scale 1e8 leaves a score of about 1e-7 from rounding
    # alone, so the fit stops after MAX_ITER updates.
    rng = np.random.default_rng(0)
    x = rng.standard_normal(200)
    a = (rng.random(200) < 1.0 / (1.0 + np.exp(-x))).astype(np.float64)
    yield "irls/max_iter", _one_covariate(1e8 * x, a), x1
    # x = 2^27 + (0 or 1): the squares lose their low bits, every step is
    # halved 50 times and the last try is kept, MAX_ITER times over.
    b = (np.arange(12) % 3 == 0).astype(np.float64)
    a = np.array([0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0], dtype=np.float64)
    yield "irls/max_iter_halved", _one_covariate(2.0**27 + b, a), x1
    # x = 2^25 + (0, 1 or 2): after 23 updates a pivot of the information
    # matrix cancels to exactly zero.
    b = np.array([1, 1, 1, 1, 2, 1, 1, 1, 1, 2, 0, 1], dtype=np.float64)
    a = np.array([0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1], dtype=np.float64)
    yield "irls/singular", _one_covariate(2.0**25 + b, a), x1
    ds = generate_dataset(2, 40, np.random.default_rng(40))
    twice = ObservationalDataset(X=ds.X[:, [0, 0]], A=ds.A, Y=ds.Y)
    yield "irls/duplicated_column", twice, main_effects(("x1", "x1 again"))


def current_fits():
    fits = {
        f"{case}/{name}": _record(fit)
        for case, ds, model in _datasets()
        for name, fit in _fits(ds, model)
    }
    for case, ds, design in _irls_cases():
        fits[f"{case}/propensity"] = _record(lambda: fit_propensity(ds, design))
    return fits


def test_every_fit_matches_the_recorded_bits():
    expected = json.loads(FITS.read_text())
    actual = current_fits()
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


if __name__ == "__main__":
    FITS.write_text(json.dumps(current_fits(), indent=1, sort_keys=True) + "\n")
