"""Every cell of a fixed set of fills pinned to the last bit.

Reports print 10 and 6 significant digits, so they cannot catch a change in
the last bits of an estimate. ``tests/golden/cells.json`` holds, for each
cell, its estimator, its estimand and ``float.hex`` of its value, or the type
and message of the error the cell failed with. The cases:

* the Monte Carlo study's 30 pipelines for outcome models 1 and 2, without
  and with (1, 99) truncation, on one generated dataset each of n = 12 (where
  propensity and outcome fits fail), 40, 200 and 1000;
* the ``estimate`` report with seven estimands (including a negative linear
  target and a covariate target) on ``cohort.csv`` and on two resamples of it.

To re-record the file after a change that is meant to alter an estimate, run
``PYTHONPATH=src python tests/test_cells_golden.py`` from the repository root.

Replicates (study, bootstrap) read only the values, through
``_cell_value_rows``; a test below pins those to the bits of ``fill_cells``.
"""

import json
from pathlib import Path

import numpy as np

from wate.cli import _split_estimands, build_report_task
from wate.data import ObservationalDataset, _Stack, load_csv
from wate.design import main_effects
from wate.errors import WateError
from wate.estimators import PointEstimate, _cell_value_rows, fill_cells, plan_cells
from wate.simulation import (
    SimulationDesign,
    _cell_pipeline,
    generate_dataset,
    study_cells,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
CELLS = GOLDEN / "cells.json"
REPORT_ESTIMANDS = "ate,att,atc,ato,linear:1,-1,linear:-1,0.5,expr:x2^2"


def _cases():
    """(case name, dataset, pipelines) for every pinned fill."""
    for model in (1, 2):
        for truncate in (None, (1.0, 99.0)):
            design = SimulationDesign(outcome_model=model, truncate=truncate)
            pipelines = [_cell_pipeline(design, cell) for cell in study_cells(design)]
            for n in (12, 40, 200, 1000):
                ds = generate_dataset(model, n, np.random.default_rng(n))
                tag = "none" if truncate is None else "1-99"
                yield f"sim/model{model}/{tag}/n{n}", ds, pipelines
    cohort, task = _cohort_report()
    pipelines = task.plan.pipelines
    yield "report/cohort", cohort, pipelines
    for i in (1, 2):
        idx = np.random.default_rng(i).integers(0, cohort.n, size=cohort.n)
        resample = ObservationalDataset(
            cohort.X[idx], cohort.A[idx], cohort.Y[idx], cohort.covariate_names
        )
        yield f"report/resample{i}", resample, pipelines


def _cohort_report():
    """``cohort.csv`` and the ``estimate`` report task over it."""
    cohort = load_csv(GOLDEN / "cohort.csv", treatment="a", outcome="y")
    names = cohort.covariate_names
    task = build_report_task(
        ["unweighted", "regression", "ipw", "aipw"], _split_estimands(REPORT_ESTIMANDS),
        names, main_effects(names), main_effects(names), None, None,
    )
    return cohort, task


def _record(result):
    if isinstance(result, PointEstimate):
        return {
            "estimator": result.estimator.value,
            "estimand": result.estimand.label,
            "value": result.value.hex(),
        }
    return {"error": type(result).__name__, "message": str(result)}


def current_cells():
    return {name: [_record(r) for r in fill_cells(ds, p)] for name, ds, p in _cases()}


def test_every_cell_matches_the_recorded_bits():
    expected = json.loads(CELLS.read_text())
    actual = current_cells()
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


def _hex(values):
    return [float(v).hex() for v in values]


def test_cell_values_are_the_bits_of_fill_cells():
    for name, ds, pipelines in _cases():
        filled = [
            np.nan if isinstance(r, WateError) else r.value for r in fill_cells(ds, pipelines)
        ]
        (values,) = _cell_value_rows(_Stack.of(ds), plan_cells(pipelines))
        assert _hex(values) == _hex(filled), name
        assert np.isnan(values).tolist() == np.isnan(filled).tolist(), name


if __name__ == "__main__":
    CELLS.write_text(json.dumps(current_cells(), indent=1, sort_keys=True) + "\n")
