import errno
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wate
from wate.cli import main, parse_estimand_token
from wate.data import save_csv
from wate.estimators import EstimatorKind
from wate.simulation import generate_dataset


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    ds = generate_dataset(2, 80, np.random.default_rng(11)).observed()
    save_csv(ds, path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_markdown_to_stdout(data_csv, capsys):
    code, out, err = run_cli(capsys, "estimate", data_csv, "--bootstrap", "0")
    assert code == 0
    assert err == ""
    assert "# command = estimate" in out
    assert "# bootstrap = 0" in out
    assert "# workers" not in out
    assert "| method | ate | att | atc | ato |" in out
    # The raw difference in means applies to the whole population only, and
    # the regression rows have no overlap column.
    unweighted = [l for l in out.splitlines() if l.startswith("| unweighted |")][0]
    assert unweighted.endswith("| - | - | - |")
    regression = [l for l in out.splitlines() if l.startswith("| regression |")][0]
    assert regression.endswith(" - |")


def test_estimate_csv_matches_library(data_csv, tmp_path, capsys):
    prefix = str(tmp_path / "report")
    code, out, _ = run_cli(
        capsys, "estimate", data_csv, "--bootstrap", "0",
        "--out", prefix, "--format", "csv",
    )
    assert code == 0
    assert out == ""
    csv_text = Path(prefix + ".csv").read_text()
    assert not (tmp_path / "report.md").exists()
    lines = [l for l in csv_text.splitlines() if not l.startswith("#")]
    assert lines[0] == "method,estimand,estimate,se,bootstrap_ok,note"
    rows = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
    assert ("regression", "ato") not in rows
    assert ("unweighted", "att") not in rows

    ds = wate.load_csv(data_csv)
    pm = wate.fit_propensity(ds, wate.main_effects(ds.covariate_names))
    om = wate.fit_outcome(ds, wate.main_effects(ds.covariate_names))
    (expected,) = wate.fill_cells(
        ds,
        [wate.EstimationPipeline(wate.average_effect(), EstimatorKind.AIPW)],
        pi=wate.predict_propensity(pm, ds.X),
        m1=wate.predict_outcome(om, ds.X, 1),
        m0=wate.predict_outcome(om, ds.X, 0),
    )
    got = float(rows[("aipw", "ate")][2])
    assert got == pytest.approx(expected.value, rel=1e-5)
    naive = float(rows[("unweighted", "ate")][2])
    assert naive == pytest.approx(
        ds.Y[ds.A == 1].mean() - ds.Y[ds.A == 0].mean(), rel=1e-5
    )


def test_estimate_bootstrap_deterministic_across_workers(data_csv, tmp_path, capsys):
    args = [
        "estimate", data_csv, "--bootstrap", "60", "--seed", "3",
        "--estimator", "ipw", "--estimand", "ate,ato", "--format", "csv",
    ]
    out1 = str(tmp_path / "w1")
    out2 = str(tmp_path / "w2")
    assert run_cli(capsys, *args, "--out", out1, "--workers", "1")[0] == 0
    assert run_cli(capsys, *args, "--out", out2, "--workers", "2")[0] == 0
    text1 = Path(out1 + ".csv").read_text()
    assert text1 == Path(out2 + ".csv").read_text()
    # Standard errors were actually produced.
    ipw_ate = [l for l in text1.splitlines() if l.startswith("ipw,ate,")][0]
    fields = ipw_ate.split(",")
    assert float(fields[3]) > 0
    assert int(fields[4]) == 60


def test_estimate_config_file_precedence(data_csv, tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text(
        "# comment line\n"
        "bootstrap = 0\n"
        "estimand = ate\n"
        "estimator = regression\n"
        "seed = 5\n"
    )
    code, out, _ = run_cli(
        capsys, "estimate", data_csv, "--config", str(cfg), "--estimand", "att"
    )
    assert code == 0
    # Flag beats the file; untouched file values beat the defaults.
    assert "# estimand = att" in out
    assert "# seed = 5" in out
    assert "# estimator = regression" in out
    assert "| method | att |" in out
    assert "| unweighted | - |" in out


def test_estimate_config_unknown_key(data_csv, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    code, _, err = run_cli(capsys, "estimate", data_csv, "--config", str(cfg))
    assert code == 2
    assert "unknown keys" in err


def test_estimate_linear_and_expression_tokens(data_csv, tmp_path, capsys):
    prefix = str(tmp_path / "tok")
    code, _, _ = run_cli(
        capsys, "estimate", data_csv, "--bootstrap", "0",
        "--estimator", "aipw", "--estimand", "linear:1,-1,expr:x2^2",
        "--out", prefix, "--format", "csv",
    )
    assert code == 0
    csv_text = Path(prefix + ".csv").read_text()
    assert '\naipw,"linear:1,-1",' in csv_text
    assert "\naipw,expr:x2^2," in csv_text


def test_estimate_usage_errors(data_csv, tmp_path, capsys):
    cases = [
        ["estimate", data_csv, "--truncate", "95,5"],
        ["estimate", data_csv, "--bootstrap", "1"],
        ["estimate", data_csv, "--estimand", "bogus"],
        ["estimate", data_csv, "--estimand", "linear:0,0"],
        ["estimate", data_csv, "--estimator", "dr"],
        ["estimate", data_csv, "--format", "pdf"],
        ["estimate", str(tmp_path / "missing.csv")],
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv
    # --truncate refuses a range by the rule the library uses.
    refused = [("95,5", "(95.0, 5.0)"), ("nan,50", "(nan, 50.0)"), ("-5,50", "(-5.0, 50.0)")]
    for text, pair in refused:
        code, _, err = run_cli(capsys, "estimate", data_csv, f"--truncate={text}")
        assert code == 2, text
        assert err.startswith(
            f"error: --truncate {text!r}: need 0 <= lower < upper <= 100, got {pair}"
        ), err


@pytest.mark.parametrize("token", ["linear:nan,1", "linear:inf,0", "linear:1e400,1"])
def test_estimate_refuses_non_finite_linear_coefficients(data_csv, capsys, token):
    code, out, err = run_cli(capsys, "estimate", data_csv, "--estimand", token, "--bootstrap", "0")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: estimand {token!r}: coefficients (a, b) must be finite")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "abc"],
        ["simulate", "--outcome-model", "3"],
        ["simulate", "--estimator", "foo"],
        ["true-values", "--outcome-model", "7"],
        ["estimate", "DATA", "--pi-design", "x9"],
        ["estimate", "DATA", "--covariates", "x9"],
        ["estimate", "DATA", "--treatment", "zz"],
        ["estimate", "DATA", "--outcome", "zz"],
        # The unweighted row is always shown; it is not an estimator option.
        ["estimate", "DATA", "--estimator", "unweighted"],
        # An empty grid would print a report with no rows.
        ["simulate", "--n", ","],
        ["simulate", "--outcome-model", ","],
        ["true-values", "--outcome-model", ","],
        ["simulate", "--estimator", "regression", "--estimand", "ato"],
    ],
)
def test_bad_option_values_are_usage_errors(argv, data_csv, capsys):
    argv = [data_csv if a == "DATA" else a for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2, argv
    assert err.startswith("error:"), argv


@pytest.mark.parametrize(
    "covariates, message",
    [
        ("y", "covariate column 'y' is the outcome column"),
        ("a", "covariate column 'a' is the treatment column"),
        ("x1,x1", "covariate column 'x1' is named twice"),
    ],
    ids=["outcome", "treatment", "twice"],
)
def test_a_covariate_that_is_no_covariate_is_a_usage_error(
    covariates, message, data_csv, capsys
):
    # --covariates y once fitted the outcome on itself and exited 0.
    code, out, err = run_cli(
        capsys, "estimate", data_csv, "--covariates", covariates,
        "--estimand", "ate", "--estimator", "regression", "--bootstrap", "0",
    )
    assert (code, out, err) == (2, "", f"error: {data_csv}: {message}\n")


def test_one_column_as_treatment_and_outcome_is_a_usage_error(data_csv, capsys):
    # It once fitted the treatment on itself and printed regression,ate,1.
    code, out, err = run_cli(
        capsys, "estimate", data_csv, "--treatment", "a", "--outcome", "a",
        "--estimand", "ate", "--estimator", "regression", "--bootstrap", "0", "--format", "csv",
    )
    message = "column 'a' is both the treatment and the outcome"
    assert (code, out, err) == (2, "", f"error: {data_csv}: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["estimate", "DATA", "--estimator", "ipw,ipw"], "estimator token 'ipw' is named twice"),
        (["estimate", "DATA", "--estimand", "ate,ate"], "estimand 'ate' is named twice"),
        (
            ["estimate", "DATA", "--estimand", "ATE,att,ate"],
            "estimand 'ate' names the same target as 'ATE'",
        ),
        (
            ["estimate", "DATA", "--estimand", "linear:1,-1,linear:1.0,-1"],
            "estimand 'linear:1.0,-1' names the same target as 'linear:1,-1'",
        ),
        (
            ["estimate", "DATA", "--estimand", "expr:x1*x2,expr:x2 * x1"],
            "estimand 'expr:x2 * x1' names the same target as 'expr:x1*x2'",
        ),
        (["simulate", "--estimator", "dr,ipw,dr"], "estimator token 'dr' is named twice"),
        (["simulate", "--estimand", "ate,ate"], "estimand 'ate' is named twice"),
        (["simulate", "--n", "50,50"], "--n value '50' is named twice"),
        (["simulate", "--outcome-model", "1,1"], "--outcome-model value '1' is named twice"),
        (
            ["true-values", "--outcome-model", "1,1"],
            "--outcome-model value '1' is named twice",
        ),
    ],
    ids=[
        "estimator", "estimand", "same-target", "same-linear", "same-expr",
        "sim-estimator", "sim-estimand", "sim-n", "sim-model", "true-values-model",
    ],
)
def test_a_repeated_token_is_a_usage_error(argv, message, data_csv, capsys):
    # Each was once accepted and its row or column printed twice.
    argv = [data_csv if a == "DATA" else a for a in argv]
    if argv[0] == "estimate":
        argv += ["--bootstrap", "0"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.skipif(sys.platform != "linux", reason="parallel_map forks on Linux")
@pytest.mark.parametrize(
    "argv",
    [
        # Two replicates or more, so one chunk per worker.
        ["estimate", "DATA", "--bootstrap", "120", "--estimand", "ate"],
        ["simulate", "--n", "2048", "--reps", "4", "--estimand", "ate", "--estimator", "ipw"],
    ],
    ids=["estimate", "simulate"],
)
def test_a_worker_that_cannot_start_is_an_error(argv, data_csv, capsys, monkeypatch):
    def fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    argv = [data_csv if a == "DATA" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--workers", "2")
    assert code == 1
    assert err.startswith("error: parallel map could not start the worker for chunk 1 "), err
    assert err.count("\n") == 1


def test_estimate_reports_failed_cells(tmp_path, capsys):
    # x1 separates the arms perfectly, so the propensity fit is refused and
    # the weighting rows fail while the others still come out.
    path = tmp_path / "sep.csv"
    lines = ["x1,a,y"]
    for x, a in [(-3, 0), (-2, 0), (-1, 0), (1, 1), (2, 1), (3, 1)]:
        lines.append(f"{x},{a},{x * 0.5 + 1}")
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(
        capsys, "estimate", str(path), "--bootstrap", "0", "--estimand", "ate"
    )
    assert code == 1
    assert "| ipw | failed |" in out
    assert "Failures:" in out
    assert "pinned" in out
    # Regression and the raw difference are unaffected.
    assert "| unweighted | 2" in out


def test_a_cell_past_the_bootstrap_failure_limit_gets_no_se(tmp_path, capsys):
    # Two treated rows: most resamples hold at most one of them, so the
    # regression refit fails in 65 of 100 while the raw difference fails in 6.
    path = tmp_path / "six.csv"
    rows = ["1,1.0,0", "0,2.0,1", "1,0.5,2", "0,1.5,3", "0,2.5,4", "0,3.0,5"]
    path.write_text("\n".join(["a,y,x1", *rows]) + "\n")
    argv = [
        "estimate", str(path), "--bootstrap", "100", "--estimand", "ate",
        "--estimator", "regression",
    ]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 1
    note = "65 of 100 bootstrap replicates failed (limit 20%)"
    assert f"regression,ate,-1.68214,,35,{note}" in out.splitlines()
    assert re.search(r"^unweighted,ate,-1\.5,[0-9.]+,94,$", out, re.MULTILINE)
    code, out, _ = run_cli(capsys, *argv, "--format", "md")
    assert code == 1
    assert "| regression | -1.68214 |" in out
    assert f"- regression / ate: {note}" in out


def test_a_cell_without_a_point_estimate_gets_no_se(tmp_path, capsys):
    # One row has x1 = -0.5, so expr:x1 fails on the full data and on every
    # resample that draws that row; the others still fill the cell.
    path = tmp_path / "oneneg.csv"
    rows = ["x1,a,y"]
    for i in range(40):
        x = -0.5 if i == 0 else i / 10
        rows.append(f"{x},{i % 2},{x + i % 2 + (i % 3) / 4}")
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(
        capsys, "estimate", str(path), "--estimand", "ate,expr:x1", "--bootstrap", "50",
        "--format", "csv",
    )
    assert code == 1
    note = "expr:x1: covariate target is negative for some observations"
    cells = [line.split(",") for line in out.splitlines() if ",expr:x1," in line]
    assert [row[0] for row in cells] == ["regression", "ipw", "aipw"]
    for _, _, estimate, se, b_ok, row_note in cells:
        assert (estimate, se, row_note) == ("", "", note)
        assert 0 < int(b_ok) < 50


def test_failed_whole_replicates_leave_the_report_standing(tmp_path, capsys):
    # x1 separates the arms, so the ipw fit fails on the full data and on
    # every resample. One of the 4 resamples also loses an arm: that whole
    # replicate fails, and the unweighted cell is past the limit.
    path = tmp_path / "four.csv"
    path.write_text("x1,a,y\n0,1,1\n1,1,2\n2,0,3\n3,0,5\n")
    code, out, err = run_cli(
        capsys, "estimate", str(path), "--bootstrap", "4", "--seed", "1",
        "--estimand", "ate", "--estimator", "ipw",
    )
    assert code == 1
    assert err == ""
    assert "- unweighted / ate: 1 of 4 bootstrap replicates failed (limit 20%)" in out
    assert "- ipw / ate: propensity fit failed: fitted probabilities pinned" in out
    assert "error:" not in out
    assert "Traceback" not in out


@pytest.mark.parametrize("workers", ["1", "2"])
def test_report_se_matches_bootstrap_se(workers, capsys):
    code, out, _ = run_cli(
        capsys, "estimate", str(COHORT), "--bootstrap", "50", "--seed", "1",
        "--workers", workers, "--format", "csv",
    )
    assert code == 0
    row = next(line.split(",") for line in out.splitlines() if line.startswith("aipw,att,"))
    ds = wate.load_csv(COHORT)
    names = ds.covariate_names
    pipe = wate.EstimationPipeline(
        estimand=wate.effect_on_treated(),
        kind=EstimatorKind.AIPW,
        pi_design=wate.main_effects(names),
        m_design=wate.main_effects(names),
    )
    result = wate.bootstrap_se(ds, pipe, b=50, seed=1)
    assert row[3:5] == ["%.6g" % result.se, str(result.b_ok)]


def test_estimand_token_parser_details():
    t = parse_estimand_token("ATT", ("x1",))
    assert t.label == "att"
    lin = parse_estimand_token("linear:2,0.5", ("x1",))
    assert (lin.a, lin.b) == (2.0, 0.5)
    expr = parse_estimand_token("expr:x1*x2", ("x1", "x2"))
    X = np.array([[2.0, 3.0], [1.0, 4.0]])
    np.testing.assert_allclose(expr.fn(X), [6.0, 4.0])
    # Expression targets must pickle for process pools.
    import pickle

    clone = pickle.loads(pickle.dumps(expr))
    np.testing.assert_allclose(clone.fn(X), [6.0, 4.0])


def test_simulate_csv_and_worker_invariance(tmp_path, capsys):
    args = [
        "simulate", "--reps", "6", "--n", "60", "--outcome-model", "2",
        "--seed", "1", "--format", "csv",
    ]
    out1 = str(tmp_path / "sim1")
    out2 = str(tmp_path / "sim2")
    assert run_cli(capsys, *args, "--out", out1)[0] == 0
    assert run_cli(capsys, *args, "--out", out2, "--workers", "2")[0] == 0
    text = Path(out1 + ".csv").read_text()
    assert text == Path(out2 + ".csv").read_text()
    assert "# command = simulate" in text
    header = [l for l in text.splitlines() if l.startswith("outcome_model,")]
    assert len(header) == 1
    data_rows = [l for l in text.splitlines() if l[:1].isdigit()]
    assert len(data_rows) == 30


def test_simulate_markdown_two_sizes(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--reps", "4", "--n", "50,70",
        "--outcome-model", "2", "--estimator", "regression", "--estimand", "ate",
    )
    assert code == 0
    assert "Outcome model 2, n = 50, 4 replications." in out
    assert "Outcome model 2, n = 70, 4 replications." in out


def test_true_values_deterministic(tmp_path, capsys):
    prefix = str(tmp_path / "tv")
    args = ["true-values", "--out", prefix]
    assert run_cli(capsys, *args)[0] == 0
    text = Path(prefix + ".csv").read_text()
    assert run_cli(capsys, *args)[0] == 0
    assert text == Path(prefix + ".csv").read_text()
    lines = text.splitlines()
    assert "outcome_model,estimand,value,mc_se,draws" in lines
    data = [l for l in lines if l[:1].isdigit()]
    assert len(data) == 8
    by_key = {tuple(l.split(",")[:2]): float(l.split(",")[2]) for l in data}
    assert by_key[("2", "att")] == pytest.approx(0.4648, abs=0.01)
    assert by_key[("1", "atc")] == pytest.approx(1.0390, abs=0.02)


@pytest.mark.parametrize("model", ["1", "2"])
def test_true_values_print_the_values_simulate_compares_against(model, capsys):
    code, tv, _ = run_cli(capsys, "true-values", "--outcome-model", model)
    assert code == 0
    printed = {
        r[1]: float(r[2]) for r in (l.split(",") for l in tv.splitlines() if l[:1].isdigit())
    }
    code, sim, _ = run_cli(
        capsys, "simulate", "--outcome-model", model, "--n", "100", "--reps", "2",
        "--estimator", "ipw", "--format", "csv",
    )
    assert code == 0
    truth = {
        r[6]: float(r[7]) for r in (l.split(",") for l in sim.splitlines() if l[:1].isdigit())
    }
    assert sorted(printed) == sorted(truth) == ["atc", "ate", "ato", "att"]
    for estimand, value in printed.items():
        assert value == pytest.approx(truth[estimand], abs=5e-7), estimand


@pytest.mark.parametrize(
    "command, option",
    [("simulate", "truth-draws"), ("true-values", "draws"), ("true-values", "seed")],
)
def test_population_values_have_no_draws_or_seed_option(command, option, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{option}", "100000"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    cfg = tmp_path / "opts.cfg"
    cfg.write_text(f"{option} = 100000\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error: config file has unknown keys") and option in err


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "DATA", "--bootstrap", "0"],
        ["simulate", "--n", "60", "--reps", "2", "--estimator", "regression", "--estimand", "ate"],
        ["true-values"],
    ],
)
def test_an_unwritable_out_is_a_usage_error(argv, data_csv, tmp_path, capsys):
    argv = [data_csv if a == "DATA" else a for a in argv]
    prefix = str(tmp_path / "no-such-dir" / "report")
    code, out, err = run_cli(capsys, *argv, "--out", prefix)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {prefix}.csv:")
    assert "Traceback" not in err


def test_an_unwritable_out_fails_before_the_study(tmp_path, capsys, monkeypatch):
    def study_must_not_run(design):
        raise AssertionError("the study ran before --out was checked")

    monkeypatch.setattr(wate.cli, "run_study", study_must_not_run)
    prefix = str(tmp_path / "missing" / "x")
    code, out, err = run_cli(capsys, "simulate", "--out", prefix)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {prefix}.csv:")


def test_no_half_written_report_pair(data_csv, tmp_path, capsys):
    # Only the .md of the pair is unwritable; the .csv must not be written.
    (tmp_path / "r.md").mkdir()
    prefix = str(tmp_path / "r")
    code, out, err = run_cli(capsys, "estimate", data_csv, "--bootstrap", "0", "--out", prefix)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {prefix}.md:")
    assert "Traceback" not in err
    assert not (tmp_path / "r.csv").exists()


_DATA_LINE = re.compile(r"^# data = .*$", re.MULTILINE)
COHORT = Path(__file__).resolve().parent / "golden" / "cohort.csv"


def test_a_byte_order_mark_is_ignored(tmp_path, capsys):
    # Spreadsheet programs save UTF-8 with a BOM; it must not become part of
    # the first column name, in the data or in a config file.
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + COHORT.read_bytes())
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfpi-design = x1\n")
    reports = []
    for data, config in ((COHORT, None), (bom, None), (COHORT, cfg), (bom, cfg)):
        argv = ["estimate", str(data), "--bootstrap", "0", "--format", "csv"]
        argv += ["--config", str(config)] if config else ["--pi-design", "x1"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        reports.append(_DATA_LINE.sub("# data = <masked>", out))
    assert reports[1:] == reports[:1] * 3


def test_bytes_that_are_not_utf8_give_typed_errors(tmp_path, capsys):
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_bytes(b"x1,a,y\n1,0,\xff\n")
    code, out, err = run_cli(capsys, "estimate", str(bad_csv))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad_csv}: not UTF-8 text")
    assert "Traceback" not in err
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_bytes(b"bootstrap = \xff\n")
    code, out, err = run_cli(capsys, "estimate", str(COHORT), "--config", str(bad_cfg))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read config file {bad_cfg}:")
    assert "Traceback" not in err


def test_version_and_missing_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "wate" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["estimate"])  # data path is positional and required


def test_negative_linear_target_gives_one_note_for_every_estimator(data_csv, tmp_path, capsys):
    # h = -1 + 0.5*pi is negative on every row, so the weighting and the
    # augmented rows refuse the target, and they say so in the same words.
    prefix = str(tmp_path / "neg")
    code, _, _ = run_cli(
        capsys, "estimate", data_csv, "--bootstrap", "0", "--estimator", "ipw,aipw",
        "--estimand", "linear:-1,0.5", "--out", prefix, "--format", "csv",
    )
    assert code == 1
    rows = [line for line in Path(prefix + ".csv").read_text().splitlines() if "linear" in line]
    notes = {row.split(",")[0]: row.rsplit(",", 1)[1] for row in rows if not row.startswith("#")}
    expected = "linear:-1;0.5: a + b*pi is negative for some observations"
    assert notes == {"ipw": expected, "aipw": expected}


def test_report_with_no_point_estimate_skips_the_bootstrap(tmp_path, capsys):
    # x1 is negative on some rows, so every cell refuses the target. No
    # bootstrap replicate could succeed: the report is printed with the cause
    # instead of 1000 doomed replicates ending in a bootstrap error.
    path = tmp_path / "n60.csv"
    save_csv(generate_dataset(1, 60, np.random.default_rng(5)).observed(), path)
    code, out, err = run_cli(capsys, "estimate", str(path), "--estimand", "expr:x1")
    assert code == 1
    assert err == ""
    assert "bootstrap skipped: no cell has a point estimate" in out
    assert out.count("expr:x1: covariate target is negative for some observations") == 3
    code, out, _ = run_cli(capsys, "estimate", str(path), "--estimand", "expr:x1", "--format", "csv")
    assert code == 1
    rows = [line for line in out.splitlines() if line.startswith(("regression", "ipw", "aipw"))]
    assert len(rows) == 3
    assert all(",,,," in row for row in rows)


def test_an_overflowing_design_term_fails_its_fits_by_name(tmp_path, capsys):
    # x1 = 1e200 is finite, but its square is not: every fit on x1^2 fails
    # with a note naming the term and row, without a warning (an error under
    # the test configuration) or Newton steps on NaN, and the run exits 1.
    rng = np.random.default_rng(1)
    X = rng.standard_normal((60, 2))
    X[3, 0] = 1e200
    A = np.arange(60) % 2
    big = tmp_path / "big.csv"
    save_csv(wate.ObservationalDataset(X=X, A=A, Y=rng.standard_normal(60)), big)
    code, out, err = run_cli(
        capsys, "estimate", str(big), "--bootstrap", "0",
        "--pi-design", "x1^2 + x2", "--m-design", "x1^2 + x2",
    )
    assert (code, err) == (1, "")
    notes = [l for l in out.splitlines() if l.startswith("- ")]
    assert len(notes) == 11
    for note in notes:
        assert note.endswith(" fit failed: term 'x1^2' is not finite (rows 4)"), note


def test_files_are_written_as_utf8_whatever_the_locale(tmp_path):
    # Data and config files are read as UTF-8; a saved dataset and a report
    # file are written as UTF-8 too, also where the locale is plain ASCII.
    data = tmp_path / "utf.csv"
    data.write_text(COHORT.read_text().replace("x1,", "xé,", 1), encoding="utf-8")
    cfg = tmp_path / "u.cfg"
    cfg.write_text("covariates = xé\n", encoding="utf-8")
    probe = (
        "import sys\n"
        "from wate.cli import main\n"
        "from wate.data import load_csv, save_csv\n"
        "save_csv(load_csv(sys.argv[1]), sys.argv[2])\n"
        "sys.exit(main(['estimate', sys.argv[2], '--config', sys.argv[3], '--bootstrap', '0',"
        " '--out', sys.argv[4], '--format', 'csv']))\n"
    )
    saved, report = tmp_path / "saved.csv", tmp_path / "rep"
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONIO"))}
    env.update(
        LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
        PYTHONPATH=os.pathsep.join(sys.path),
    )
    run = subprocess.run(
        [sys.executable, "-c", probe, str(data), str(saved), str(cfg), str(report)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert saved.read_text(encoding="utf-8").startswith("xé,x2,")
    assert "# covariates = xé\n" in (tmp_path / "rep.csv").read_text(encoding="utf-8")


def test_stdout_reports_are_utf8_whatever_the_locale(tmp_path):
    # With no --out the report goes to standard output, which under a plain
    # ASCII locale once failed with UnicodeEncodeError on a non-ASCII name.
    # The name comes from a config file: the command line is decoded in the
    # locale's encoding.
    data = tmp_path / "utf.csv"
    data.write_text(COHORT.read_text().replace("x1,", "xé,", 1), encoding="utf-8")
    cfg = tmp_path / "u.cfg"
    cfg.write_text("covariates = xé\n", encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONIO"))}
    env.update(
        LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
        PYTHONPATH=os.pathsep.join(sys.path),
    )
    for fmt in ("csv", "md"):
        run = subprocess.run(
            [sys.executable, "-m", "wate.cli", "estimate", str(data), "--config", str(cfg),
             "--bootstrap", "0", "--format", fmt],
            env=env, capture_output=True, timeout=120,
        )
        assert (run.returncode, run.stderr) == (0, b"")
        assert "\n# covariates = xé\n" in run.stdout.decode("utf-8")
