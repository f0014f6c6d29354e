"""Reports pinned byte for byte to files under ``tests/golden/``.

Each case is one ``wate`` command line and the file its standard output must
equal, at one worker and at two. The ``# data =`` echo line holds the path
of the input and is masked on both sides. ``cohort.csv`` is
``scripts/make_synthetic_csv.py --n 300 --seed 7``. To re-record a file after
a change that is meant to alter a report, run its command from the
repository root with ``--workers 1`` and write standard output to the file.
"""

import re
from pathlib import Path

import pytest

from wate.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
COHORT = str(GOLDEN / "cohort.csv")

CASES = {
    "simulate_model1.csv": [
        "simulate", "--outcome-model", "1", "--n", "300", "--reps", "20", "--seed", "0",
        "--truth-draws", "100000", "--format", "csv",
    ],
    "simulate_model2.md": [
        "simulate", "--outcome-model", "2", "--n", "300", "--reps", "20", "--seed", "3",
        "--truncate", "1,99", "--truth-draws", "100000", "--format", "md",
    ],
    "estimate_default.csv": [
        "estimate", COHORT, "--bootstrap", "50", "--seed", "1", "--format", "csv",
    ],
    "estimate_custom.md": [
        "estimate", COHORT, "--estimand", "ate,linear:1,-1,expr:x2^2,linear:0.5,1",
        "--pi-design", "x1 + x2^2 + x3*x5", "--m-design", "x1 + x2 + x3",
        "--m-interaction", "x1 + x2^2", "--truncate", "1,99", "--bootstrap", "30",
        "--seed", "2", "--format", "md",
    ],
}

_DATA_LINE = re.compile(r"^# data = .*$", re.MULTILINE)


def _masked(text):
    return _DATA_LINE.sub("# data = <masked>", text)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_file(name, workers, capsys):
    assert main(CASES[name] + ["--workers", workers]) == 0
    out = capsys.readouterr().out
    expected = (GOLDEN / name).read_text()
    assert _masked(out) == _masked(expected)
