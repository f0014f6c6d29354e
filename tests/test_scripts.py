"""Smoke tests for the command line scripts under ``scripts/``."""

import importlib.util
from pathlib import Path

from wate.data import load_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_tables_writes_both_grids(tmp_path, capsys):
    script = _load("reproduce_tables")
    assert script.run(["--reps", "2", "--workers", "1", "--out-dir", str(tmp_path)]) == 0
    for model in (1, 2):
        for ext in ("csv", "md"):
            text = (tmp_path / f"grid_model{model}.{ext}").read_text()
            assert text.startswith("# command = simulate\n")


def test_make_synthetic_csv_hits_the_treated_count(tmp_path, capsys):
    script = _load("make_synthetic_csv")
    out = tmp_path / "demo.csv"
    assert script.run(["--n", "40", "--treated", "10", "--seed", "3", "--out", str(out)]) == 0
    ds = load_csv(out)
    assert ds.n == 40
    assert ds.n_treated == 10
