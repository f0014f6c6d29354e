"""Reports pinned byte for byte to files under ``tests/golden/``.

Each case is one ``wate`` command line, the exit code it must return and the
file its standard output must equal, at one worker and at two. The
``# data =`` echo line holds the path of the input and is masked on both
sides. ``cohort.csv`` is ``scripts/make_synthetic_csv.py --n 300 --seed 7``.

To re-record every file after a change that is meant to alter a report, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root. It
runs each case at ``--workers 1`` and writes the ``# data =`` line with the
input's path relative to the repository root.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from wate.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN.parents[1]
COHORT = str(GOLDEN / "cohort.csv")
_CUSTOM = [
    "estimate", COHORT, "--estimand", "ate,linear:1,-1,expr:x2^2,linear:0.5,1",
    "--pi-design", "x1 + x2^2 + x3*x5", "--m-design", "x1 + x2 + x3",
    "--m-interaction", "x1 + x2^2", "--truncate", "1,99", "--bootstrap", "30",
    "--seed", "2",
]
_GRID = ["simulate", "--outcome-model", "1,2", "--n", "60,120", "--reps", "3", "--seed", "4"]
_FAILED = ["estimate", COHORT, "--estimand", "ate,expr:x1", "--bootstrap", "4"]

# file name: (exit code, command line)
CASES = {
    "simulate_model1.csv": (0, [
        "simulate", "--outcome-model", "1", "--n", "300", "--reps", "20", "--seed", "0",
        "--format", "csv",
    ]),
    "simulate_model2.md": (0, [
        "simulate", "--outcome-model", "2", "--n", "300", "--reps", "20", "--seed", "3",
        "--truncate", "1,99", "--format", "md",
    ]),
    "simulate_grid.csv": (0, _GRID + ["--format", "csv"]),
    "simulate_grid.md": (0, _GRID + ["--format", "md"]),
    "simulate_failed.md": (0, [
        "simulate", "--outcome-model", "1", "--n", "12", "--reps", "3", "--format", "md",
    ]),
    "estimate_default.csv": (0, [
        "estimate", COHORT, "--bootstrap", "50", "--seed", "1", "--format", "csv",
    ]),
    "estimate_custom.md": (0, _CUSTOM + ["--format", "md"]),
    "estimate_custom.csv": (0, _CUSTOM + ["--format", "csv"]),
    "estimate_failed.csv": (1, _FAILED + ["--format", "csv"]),
    "estimate_failed.md": (1, _FAILED + ["--format", "md"]),
    "estimate_no_bootstrap.csv": (0, [
        "estimate", COHORT, "--estimand", "att", "--bootstrap", "0", "--format", "csv",
    ]),
    "estimate_skipped.md": (1, [
        "estimate", COHORT, "--estimand", "expr:x1", "--bootstrap", "4", "--format", "md",
    ]),
    "true_values.csv": (0, ["true-values"]),
}

_DATA_LINE = re.compile(r"^# data = .*$", re.MULTILINE)


def _masked(text):
    return _DATA_LINE.sub("# data = <masked>", text)


def _report(name, workers):
    """The standard output of case ``name`` at ``workers``, checking its exit
    code."""
    code, argv = CASES[name]
    if argv[0] != "true-values":  # the one command without a pool
        argv = argv + ["--workers", workers]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == code, name
    return out.getvalue()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_file(name, workers):
    expected = (GOLDEN / name).read_text()
    assert _masked(_report(name, workers)) == _masked(expected)


if __name__ == "__main__":
    data_line = f"# data = {Path(COHORT).relative_to(ROOT).as_posix()}"
    for name in CASES:
        (GOLDEN / name).write_text(_DATA_LINE.sub(data_line, _report(name, "1")))
