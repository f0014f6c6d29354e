"""Bootstrap replicates pinned to the last bit.

Reports print 6 significant digits of a standard error, so they cannot catch
a change in the last bits of a replicate. ``tests/golden/bootstrap.json``
holds ``float.hex`` of every replicate value of two runs:

* ``report``: the B = 3 replicate matrix over the ``estimate`` report plan on
  ``cohort.csv`` (the plan that ``tests/test_cells_golden.py`` pins once);
* ``se``: ``bootstrap_se(...).replicate_values`` of the augmented estimator
  of the average effect, with propensities truncated at (1, 99), on a
  generated dataset of n = 400, B = 20.

Both runs must give the same bits at one and at two workers.

To re-record the file after a change that is meant to alter a replicate, run
``PYTHONPATH=src python tests/test_bootstrap_golden.py`` from the repository
root.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import wate
from wate.bootstrap import bootstrap_se, bootstrap_vector
from wate.cli import _split_estimands, build_report_task
from wate.data import load_csv
from wate.design import main_effects
from wate.estimators import EstimationPipeline, EstimatorKind
from wate.simulation import generate_dataset, outcome_design, propensity_design

GOLDEN = Path(__file__).resolve().parent / "golden"
BOOTSTRAP = GOLDEN / "bootstrap.json"
REPORT_ESTIMANDS = "ate,att,atc,ato,linear:1,-1,linear:-1,0.5,expr:x2^2"


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _report_replicates(workers):
    cohort = load_csv(GOLDEN / "cohort.csv", treatment="a", outcome="y")
    names = cohort.covariate_names
    task = build_report_task(
        ["unweighted", "regression", "ipw", "aipw"], _split_estimands(REPORT_ESTIMANDS),
        names, main_effects(names), main_effects(names), None, None,
    )
    return bootstrap_vector(cohort, task.plan, b=3, seed=2, workers=workers).values


def _se_replicates(workers):
    ds = generate_dataset(2, 400, np.random.default_rng(99)).observed()
    main, inter = outcome_design(True, 2)
    pipeline = EstimationPipeline(
        estimand=wate.average_effect(),
        kind=EstimatorKind.AIPW,
        pi_design=propensity_design(True),
        m_design=main,
        m_interaction=inter,
        truncate=(1, 99),
    )
    return bootstrap_se(ds, pipeline, b=20, seed=3, workers=workers).replicate_values


def current_replicates(workers=1):
    report = _report_replicates(workers)
    return {
        "report": {"shape": list(report.shape), "values": _hex(report)},
        "se": _hex(_se_replicates(workers)),
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_replicates_match_the_recorded_bits(workers):
    assert current_replicates(workers) == json.loads(BOOTSTRAP.read_text())


if __name__ == "__main__":
    BOOTSTRAP.write_text(json.dumps(current_replicates(), indent=1, sort_keys=True) + "\n")
