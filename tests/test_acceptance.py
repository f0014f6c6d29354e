"""Whole-package acceptance gate.

Every test here freezes one user-facing promise: population values of the
built-in generator, spot cells of the simulation grid at desk scale,
double robustness and efficiency behavior, exact algebraic identities,
agreement of the fitters with derivative-free oracles, byte-identical
reports across worker counts, and a complete run on a dataset shaped like
a small clinical cohort. Each test prints one ``ACCEPTANCE <label>:
PASS/FAIL`` line (visible with ``pytest -s`` or on failure).

Grid spot checks compare against reference values frozen from full-scale
1000-replication runs of the same design; at 200 replications the Monte
Carlo slack is wide but still tight enough to catch a wrong weight, a
flipped sign, or a broken working model.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from test_estimators import (
    atc_dr,
    atc_dr_oracle,
    att_dr,
    att_dr_oracle,
    fixed_h,
    random_instance,
    unnormalized_ipw_oracle,
    zero_outcome_model,
)
from test_models import GRID_A, GRID_X, _gaussian_elimination, _grid_search_mle

import wate
from wate.cli import main
from wate.data import ObservationalDataset, save_csv
from wate.design import main_effects
from wate.estimators import EstimatorKind, estimate
from wate.models import (
    fit_outcome,
    fit_propensity,
    predict_outcome,
    predict_propensity,
)
from wate.simulation import (
    SimulationDesign,
    generate_dataset,
    propensity_design,
    run_study,
    treatment_effect,
    true_propensity,
)
from wate.targets import (
    average_effect,
    effect_on_treated,
    evaluate_h,
    overlap_effect,
)


def _gate(label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {verdict}{suffix}")
    assert ok, f"ACCEPTANCE {label} failed: {detail}"


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# population values of the generator


@pytest.fixture(scope="module")
def population_values(tmp_path_factory):
    prefix = str(tmp_path_factory.mktemp("acc") / "tv")
    t0 = time.monotonic()
    code = main(["true-values", "--draws", "1000000", "--out", prefix])
    elapsed = time.monotonic() - t0
    assert code == 0
    values = {}
    for line in Path(prefix + ".csv").read_text().splitlines():
        if line[:1].isdigit():
            model, estimand, value = line.split(",")[:3]
            values[(int(model), estimand)] = float(value)
    return values, elapsed


_POPULATION_WINDOWS = {
    (1, "ate"): 1.90,
    (1, "att"): 2.75,
    (1, "atc"): 1.04,
    (1, "ato"): 1.50,
    (2, "ate"): 0.00,
    (2, "att"): 0.46,
    (2, "atc"): -0.46,
}


def test_acceptance_1_population_values(population_values):
    values, elapsed = population_values
    bad = [
        f"{k}={values[k]:.4f} vs {center:+.2f}"
        for k, center in _POPULATION_WINDOWS.items()
        if abs(values[k] - center) > 0.02
    ]
    ok = not bad and elapsed < 60.0
    _gate("1 population-values", ok, "; ".join(bad) or f"{elapsed:.1f}s")


@pytest.mark.xfail(
    strict=True,
    reason="the model-2 overlap-population contrast of this generator is "
    "about -0.026, outside the 0.00 +/- 0.02 window this check demands; "
    "left failing on purpose instead of widening the window",
)
def test_acceptance_1_model2_overlap_window(population_values):
    values, _ = population_values
    got = values[(2, "ato")]
    _gate("1x model2-overlap-window", abs(got - 0.00) <= 0.02, f"got {got:.4f}")


# ---------------------------------------------------------------------------
# simulation grid spot checks


@pytest.fixture(scope="module")
def model1_studies():
    t0 = time.monotonic()
    big = run_study(
        SimulationDesign(outcome_model=1, n=1000, replications=200, seed=0, workers=2)
    )
    small = run_study(
        SimulationDesign(outcome_model=1, n=200, replications=200, seed=0, workers=2)
    )
    return big, small, time.monotonic() - t0


@pytest.fixture(scope="module")
def model2_study():
    t0 = time.monotonic()
    report = run_study(
        SimulationDesign(outcome_model=2, n=1000, replications=200, seed=0, workers=2)
    )
    return report, time.monotonic() - t0


# Reference cells frozen from 1000-replication runs at n=1000.
_M1_REFERENCE_RMSE = {
    ("dr", True, True, "ate"): 0.17,
    ("dr", True, True, "att"): 0.30,
    ("dr", True, True, "atc"): 0.13,
    ("dr", True, True, "ato"): 0.09,
    ("ipw", False, None, "ate"): 0.66,
    ("dr", False, True, "ato"): 0.21,
}


def test_acceptance_2_model1_grid(model1_studies):
    big, _, elapsed = model1_studies
    bad = []
    for estimand in ("ate", "att", "atc", "ato"):
        bias = big.cell("dr", True, True, estimand).bias
        if abs(bias) > 0.03:
            bad.append(f"dr-correct {estimand} bias {bias:+.3f}")
    ipw_bias = big.cell("ipw", False, None, "ate").bias
    if not -0.72 <= ipw_bias <= -0.52:
        bad.append(f"ipw-wrong-pi ate bias {ipw_bias:+.3f}")
    ato_bias = big.cell("dr", False, True, "ato").bias
    if not 0.10 <= ato_bias <= 0.22:
        bad.append(f"dr-wrong-pi ato bias {ato_bias:+.3f}")
    for key, reference in _M1_REFERENCE_RMSE.items():
        rmse = big.cell(*key).rmse
        if not 0.75 * reference <= rmse <= 1.25 * reference:
            bad.append(f"{key} rmse {rmse:.3f} vs {reference:.2f}")
    if elapsed >= 600.0:
        bad.append(f"runtime {elapsed:.0f}s")
    _gate("2 model1-grid", not bad, "; ".join(bad) or f"{elapsed:.1f}s")


def test_acceptance_3_model2_grid(model2_study):
    report, elapsed = model2_study
    bad = []
    ato_bias = report.cell("dr", False, True, "ato").bias
    if abs(ato_bias) > 0.03:
        bad.append(f"dr-wrong-pi ato bias {ato_bias:+.3f}")
    att_bias = report.cell("regression", None, False, "att").bias
    if not -0.90 <= att_bias <= -0.72:
        bad.append(f"regression-wrong-m att bias {att_bias:+.3f}")
    if elapsed >= 600.0:
        bad.append(f"runtime {elapsed:.0f}s")
    _gate("3 model2-grid", not bad, "; ".join(bad) or f"{elapsed:.1f}s")


def test_acceptance_4_double_robustness(model1_studies):
    # With one model correct the augmented estimators stay centered: small
    # bias at n=1000 in Monte Carlo terms, and no growth from n=200. The
    # overlap column is excluded in the wrong-propensity scenario because
    # its target weights are built from the misspecified model.
    big, small, _ = model1_studies
    scenarios = [
        (True, False, ("ate", "att", "atc", "ato")),
        (False, True, ("ate", "att", "atc")),
    ]
    bad = []
    for pi_ok, m_ok, estimands in scenarios:
        for estimand in estimands:
            cb = big.cell("dr", pi_ok, m_ok, estimand)
            cs = small.cell("dr", pi_ok, m_ok, estimand)
            tag = f"pi={'T' if pi_ok else 'F'} m={'T' if m_ok else 'F'} {estimand}"
            if abs(cb.bias) >= 3.0 * cb.mc_se:
                bad.append(f"{tag}: |bias| {abs(cb.bias):.3f} >= 3*{cb.mc_se:.3f}")
            bound = abs(cs.bias) + 2.0 * math.hypot(cs.mc_se, cb.mc_se)
            if abs(cb.bias) >= bound:
                bad.append(f"{tag}: no shrinkage {abs(cb.bias):.3f} >= {bound:.3f}")
    _gate("4 double-robustness", not bad, "; ".join(bad))


def test_acceptance_5_augmentation_efficiency(model1_studies):
    big, _, _ = model1_studies
    bad = []
    ratios = []
    for estimand in ("ate", "att", "atc", "ato"):
        ratio = (
            big.cell("dr", True, True, estimand).sd
            / big.cell("ipw", True, None, estimand).sd
        )
        ratios.append(f"{estimand} {ratio:.2f}")
        if ratio > 1.05:
            bad.append(f"{estimand} sd ratio {ratio:.3f}")
    _gate("5 augmentation-efficiency", not bad, "; ".join(bad or ratios))


# ---------------------------------------------------------------------------
# exact identities and fitting oracles


def test_acceptance_6_exact_identities():
    worst = 0.0
    for seed in range(100):
        ds, om, pi = random_instance(seed, n=30)
        checks = []

        zero = zero_outcome_model(om)
        for target in (average_effect(), effect_on_treated(), overlap_effect()):
            h = evaluate_h(target, ds.X, pi)
            checks.append(
                (
                    estimate(ds, EstimatorKind.AIPW, fixed_h(h), om=zero, pi_hat=pi).value,
                    unnormalized_ipw_oracle(ds, h, pi),
                )
            )

        fitted = np.where(
            ds.A == 1.0, predict_outcome(om, ds.X, 1), predict_outcome(om, ds.X, 0)
        )
        ds_fit = ObservationalDataset(X=ds.X, A=ds.A, Y=fitted)
        checks.append(
            (
                estimate(ds_fit, EstimatorKind.AIPW, overlap_effect(), om=om, pi_hat=pi).value,
                estimate(
                    ds_fit, EstimatorKind.REGRESSION, overlap_effect(), om=om, pi_hat=pi
                ).value,
            )
        )

        checks.append((att_dr(ds, om, pi), att_dr_oracle(ds, om, pi)))
        checks.append((atc_dr(ds, om, pi), atc_dr_oracle(ds, om, pi)))

        flat = np.full(ds.n, 0.2 + 0.006 * (seed % 100))
        checks.append(
            (
                estimate(ds, EstimatorKind.AIPW, overlap_effect(), om=om, pi_hat=flat).value,
                estimate(ds, EstimatorKind.AIPW, average_effect(), om=om, pi_hat=flat).value,
            )
        )

        for a, b in checks:
            worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
            if not _close(a, b):
                _gate("6 exact-identities", False, f"seed {seed}: {a!r} != {b!r}")
    _gate("6 exact-identities", True, f"100 instances, worst gap {worst:.2e}")


_MLE_INSTANCES = [
    (GRID_X, GRID_A),
    ([-2.0, -1.2, -0.7, -0.1, 0.3, 0.8, 1.4, 2.2], [1, 0, 0, 1, 0, 1, 0, 1]),
    ([-1.8, -1.1, -0.6, -0.2, 0.2, 0.7, 1.2, 1.9], [0, 1, 0, 1, 1, 0, 1, 0]),
]


def test_acceptance_7_fitting_oracles():
    bad = []

    for x, a in _MLE_INSTANCES:
        ds = ObservationalDataset(
            X=np.array(x).reshape(-1, 1),
            A=np.array(a, dtype=float),
            Y=np.zeros(len(a)),
        )
        model = fit_propensity(ds, main_effects(("x1",)))
        b0, b1 = _grid_search_mle(x, a)
        gap = max(abs(model.alpha[0] - b0), abs(model.alpha[1] - b1))
        if gap > 1e-4:
            bad.append(f"logistic grid gap {gap:.2e}")

    rng = np.random.default_rng(7)
    X = rng.normal(size=(10, 1))
    A = np.array([0.0, 1, 0, 1, 1, 0, 1, 0, 0, 1])
    Y = rng.normal(size=10)
    ds = ObservationalDataset(X=X, A=A, Y=Y)
    om = fit_outcome(ds, main_effects(("x1",)))
    M = np.column_stack([np.ones(10), X[:, 0], A, A * X[:, 0]])
    oracle = _gaussian_elimination((M.T @ M).tolist(), (M.T @ Y).tolist())
    ols_gap = float(np.max(np.abs(om.beta - np.asarray(oracle))))
    if ols_gap > 1e-8:
        bad.append(f"ols normal-equations gap {ols_gap:.2e}")

    ds_big = generate_dataset(1, 100_000, np.random.default_rng(7))
    pm = fit_propensity(ds_big, propensity_design(False))
    p = predict_propensity(pm, ds_big.X)
    eta = np.log(p / (1 - p))
    true_logit = np.log(ds_big.pi_true / (1 - ds_big.pi_true))
    corr = float(np.corrcoef(eta, true_logit)[0, 1])
    if abs(corr - 0.75) > 0.05:
        bad.append(f"misspecified-pi correlation {corr:.3f}")

    _gate("7 fitting-oracles", not bad, "; ".join(bad) or f"corr {corr:.3f}")


# ---------------------------------------------------------------------------
# determinism and the clinical-shape run


def test_acceptance_8_worker_determinism(tmp_path):
    sim_args = [
        "simulate", "--outcome-model", "2", "--n", "80", "--reps", "8",
        "--truth-draws", "100000", "--seed", "4",
    ]
    a, b = str(tmp_path / "sim_a"), str(tmp_path / "sim_b")
    assert main(sim_args + ["--out", a, "--workers", "1"]) == 0
    assert main(sim_args + ["--out", b, "--workers", "3"]) == 0
    same_sim = all(
        Path(a + ext).read_text() == Path(b + ext).read_text() for ext in (".csv", ".md")
    )

    data = str(tmp_path / "data.csv")
    save_csv(generate_dataset(2, 120, np.random.default_rng(21)).observed(), data)
    est_args = ["estimate", data, "--bootstrap", "50", "--seed", "9"]
    c, d = str(tmp_path / "est_c"), str(tmp_path / "est_d")
    assert main(est_args + ["--out", c, "--workers", "1"]) == 0
    assert main(est_args + ["--out", d, "--workers", "2"]) == 0
    same_est = all(
        Path(c + ext).read_text() == Path(d + ext).read_text() for ext in (".csv", ".md")
    )
    _gate(
        "8 worker-determinism",
        same_sim and same_est,
        f"simulate identical={same_sim}, estimate identical={same_est}",
    )


def test_acceptance_9_clinical_shape_run(tmp_path):
    # A cohort-sized dataset: 628 rows with exactly 192 treated, assignment
    # leaning on the same propensity surface as the generator. The full
    # report must come back with every applicable cell estimated and a
    # positive bootstrap standard error.
    rng = np.random.default_rng(777)
    n, n_treated = 628, 192
    X = rng.standard_normal((n, 5))
    pi = true_propensity(X)
    A = np.zeros(n)
    A[rng.choice(n, size=n_treated, replace=False, p=pi / pi.sum())] = 1.0
    Y = (
        1.0 + X[:, 1] ** 2 + X[:, 2]
        + A * treatment_effect(2, X)
        + rng.standard_normal(n)
    )
    ds = ObservationalDataset(X=X, A=A, Y=Y)
    path = str(tmp_path / "cohort.csv")
    save_csv(ds, path)

    prefix = str(tmp_path / "cohort_report")
    code = main(
        [
            "estimate", path, "--truncate", "5,95", "--bootstrap", "200",
            "--seed", "1", "--out", prefix,
        ]
    )
    csv_rows = [
        line.split(",")
        for line in Path(prefix + ".csv").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("method,")
    ]
    bad = []
    if code != 0:
        bad.append(f"exit code {code}")
    if len(csv_rows) != 12:
        bad.append(f"{len(csv_rows)} cells, expected 12")
    for row in csv_rows:
        method, estimand, estimate_txt, se_txt, b_ok = row[:5]
        if not estimate_txt or not np.isfinite(float(estimate_txt)):
            bad.append(f"{method}/{estimand}: no estimate")
        elif not se_txt or float(se_txt) <= 0:
            bad.append(f"{method}/{estimand}: bad se {se_txt!r}")
        elif int(b_ok) < 150:
            bad.append(f"{method}/{estimand}: only {b_ok} bootstrap fits")
    echo = Path(prefix + ".csv").read_text()
    if f"# n = {n}, treated = {n_treated}, control = {n - n_treated}" not in echo:
        bad.append("sample breakdown line missing")
    _gate("9 clinical-shape-run", not bad, "; ".join(bad) or "12 cells complete")
