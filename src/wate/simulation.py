"""Monte Carlo study harness.

The data generating process has five independent standard normal
covariates, a treatment assignment whose log odds are
``0.5 + x1 - 0.5*x2^2 + 0.5*x3*x5``, and outcome
``1 + x2^2 + x3 + A*effect + noise`` with shared standard normal noise
across arms. Two effect surfaces are supported: model 1 uses
``exp(x1 + 0.5*x3*x5)`` (highly heterogeneous, heavy tailed), model 2 the
linear ``x1 + 0.5*x3*x5``.

``run_study`` crosses estimators with correct and misspecified working
models over many replications, and reports bias and RMSE per cell against
the population values of ``reference_truth``: constants of the module, equal
bit for bit to ``true_estimands`` integrating ``DEFAULT_TRUTH_DRAWS`` draws
on a separate fixed stream (``_truth_stream``). ``true_estimands`` stays
public for other draws or streams. It streams its draws: its working set is
about five chunk-length arrays (~21 MB), whatever the number of draws, and
it takes about 0.2 s per 10^6 draws. ``_TRUTH_CHUNK`` is its summation unit,
so changing it changes the last bits of the values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .bootstrap import parallel_map
from .data import CounterfactualDataset
from .design import DesignSpec, TransformTerm, main_effects, parse_design
from .estimators import (
    CellPlan,
    EstimationPipeline,
    EstimatorKind,
    cell_values,
    has_formula,
    plan_cells,
)
from .models import _sigmoid
from .targets import (
    TargetFunction,
    average_effect,
    effect_on_controls,
    effect_on_treated,
    overlap_effect,
)

_COVARIATE_NAMES = ("x1", "x2", "x3", "x4", "x5")

# Entropy for the dedicated stream behind the population values. Study
# replicate r draws from the user's seed with spawn key (r,), and the truth of
# outcome model m from this entropy with spawn key (m,), so the two streams are
# the same only for ``--seed 196883741`` and r == m; any other seed keeps them
# apart.
_TRUTH_ENTROPY = 196_883_741

# Draws behind the study's population values.
DEFAULT_TRUTH_DRAWS = 10**6

# Draws per summation chunk, and rows per block of covariates drawn within a
# chunk. The chunk fixes how the sums are grouped, so it is part of the
# values' last bits; the block only bounds memory.
_TRUTH_CHUNK = 1 << 19
_TRUTH_BLOCK = 1 << 14

_TARGETS: dict[str, TargetFunction] = {
    "ate": average_effect(),
    "att": effect_on_treated(),
    "atc": effect_on_controls(),
    "ato": overlap_effect(),
}


def _check_outcome_model(outcome_model: int) -> int:
    if outcome_model not in (1, 2):
        raise ValueError(f"outcome_model must be 1 or 2, got {outcome_model!r}")
    return outcome_model


def true_propensity(X: NDArray[np.float64]) -> NDArray[np.float64]:
    """Assignment probability used by the generator."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    logit = 0.5 + X[:, 0] - 0.5 * X[:, 1] ** 2 + 0.5 * X[:, 2] * X[:, 4]
    return _sigmoid(logit)


def treatment_effect(outcome_model: int, X: NDArray[np.float64]) -> NDArray[np.float64]:
    """Unit-level effect surface for the chosen outcome model."""
    _check_outcome_model(outcome_model)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    base = X[:, 0] + 0.5 * X[:, 2] * X[:, 4]
    return np.exp(base) if outcome_model == 1 else base


def generate_dataset(
    outcome_model: int, n: int, rng: np.random.Generator
) -> CounterfactualDataset:
    """Draw one dataset of size n, keeping both potential outcomes.

    Draw order (covariates, assignment uniforms, noise) is part of the
    reproducibility contract; tests pin it.
    """
    _check_outcome_model(outcome_model)
    X = rng.standard_normal((n, 5))
    pi = true_propensity(X)
    A = (rng.random(n) < pi).astype(np.float64)
    noise = rng.standard_normal(n)
    y0 = 1.0 + X[:, 1] ** 2 + X[:, 2] + noise
    y1 = y0 + treatment_effect(outcome_model, X)
    Y = np.where(A == 1.0, y1, y0)
    return CounterfactualDataset(
        X=X,
        A=A,
        Y=Y,
        covariate_names=_COVARIATE_NAMES,
        y1=y1,
        y0=y0,
        pi_true=pi,
    )


@dataclass(frozen=True)
class TrueEstimands:
    """Population contrasts with their Monte Carlo standard errors."""

    outcome_model: int
    draws: int
    ate: float
    att: float
    atc: float
    ato: float
    se_ate: float
    se_att: float
    se_atc: float
    se_ato: float

    def value(self, estimand: str) -> float:
        return float(getattr(self, estimand))

    def mc_se(self, estimand: str) -> float:
        return float(getattr(self, "se_" + estimand))


def true_estimands(
    outcome_model: int,
    draws: int = DEFAULT_TRUTH_DRAWS,
    rng: np.random.Generator | None = None,
) -> TrueEstimands:
    """Monte Carlo integration of the four standard contrasts.

    Each contrast is a weighted mean E[h*effect]/E[h]; its standard error
    comes from the variance of the per-draw influence values
    (h*effect - tau*h)/E[h]. Note the model-1 effect is so heavy tailed that
    the whole-population value converges slowly; the overlap and
    treated/control contrasts are much better behaved.

    The covariates are drawn in blocks of ``_TRUTH_BLOCK`` rows, which gives
    the same numbers as one draw of the whole sample, and only each draw's
    propensity and effect are kept. The working set is about five
    chunk-length arrays (~21 MB), whatever ``draws`` is. ``_TRUTH_CHUNK`` is
    the summation unit: every sum runs over one chunk, so changing it changes
    the last bits of the values.
    """
    _check_outcome_model(outcome_model)
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    weights = {
        "ate": np.ones_like,
        "att": lambda pi: pi,
        "atc": lambda pi: 1.0 - pi,
        "ato": lambda pi: pi * (1.0 - pi),
    }
    s_h = dict.fromkeys(weights, 0.0)
    s_hd = dict.fromkeys(weights, 0.0)
    s_h2 = dict.fromkeys(weights, 0.0)
    s_hd2 = dict.fromkeys(weights, 0.0)
    s_hhd = dict.fromkeys(weights, 0.0)
    pi_buf = np.empty(min(_TRUTH_CHUNK, draws))
    delta_buf = np.empty_like(pi_buf)
    done = 0
    while done < draws:
        m = min(_TRUTH_CHUNK, draws - done)
        pi, delta = pi_buf[:m], delta_buf[:m]
        for lo in range(0, m, _TRUTH_BLOCK):
            X = rng.standard_normal((min(_TRUTH_BLOCK, m - lo), 5))
            pi[lo : lo + len(X)] = true_propensity(X)
            delta[lo : lo + len(X)] = treatment_effect(outcome_model, X)
        # One target's h and h*delta at a time; each sum runs over the whole
        # chunk.
        for key, weight in weights.items():
            h = weight(pi)
            hd = h * delta
            s_h[key] += float(np.sum(h))
            s_hd[key] += float(np.sum(hd))
            s_h2[key] += float(np.sum(h * h))
            s_hd2[key] += float(np.sum(hd * hd))
            s_hhd[key] += float(np.sum(h * hd))
        done += m
    values = {}
    ses = {}
    for key in weights:
        mean_h = s_h[key] / draws
        tau = s_hd[key] / s_h[key]
        # E[(h*delta - tau*h)^2]; the first moment of that quantity is zero
        # by the definition of tau.
        second = (s_hd2[key] - 2.0 * tau * s_hhd[key] + tau * tau * s_h2[key]) / draws
        values[key] = tau
        ses[key] = float(np.sqrt(max(second, 0.0) / draws) / mean_h)
    return TrueEstimands(
        outcome_model=outcome_model,
        draws=draws,
        ate=values["ate"],
        att=values["att"],
        atc=values["atc"],
        ato=values["ato"],
        se_ate=ses["ate"],
        se_att=ses["att"],
        se_atc=ses["atc"],
        se_ato=ses["ato"],
    )


def _truth_stream(outcome_model: int) -> np.random.Generator:
    """A fresh generator on the fixed stream behind ``outcome_model``'s
    population values."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=_TRUTH_ENTROPY, spawn_key=(outcome_model,))
    )


# true_estimands(m, DEFAULT_TRUTH_DRAWS, _truth_stream(m)) for both outcome
# models, to the last bit.
_PINNED_TRUTH: dict[int, TrueEstimands] = {
    1: TrueEstimands(
        outcome_model=1,
        draws=DEFAULT_TRUTH_DRAWS,
        ate=float.fromhex("0x1.e76da4e86b454p+0"),
        att=float.fromhex("0x1.5ffa3f61cc5c8p+1"),
        atc=float.fromhex("0x1.09ce869d5d434p+0"),
        ato=float.fromhex("0x1.7f70bb293b2cep+0"),
        se_ate=float.fromhex("0x1.0fb95d856d81dp-8"),
        se_att=float.fromhex("0x1.eb946a490e8ecp-8"),
        se_atc=float.fromhex("0x1.2aa32cfbdedd1p-10"),
        se_ato=float.fromhex("0x1.8d375d51edf61p-10"),
    ),
    2: TrueEstimands(
        outcome_model=2,
        draws=DEFAULT_TRUTH_DRAWS,
        ate=float.fromhex("0x1.939d88be2f7d3p-14"),
        att=float.fromhex("0x1.dad6c71d43c37p-2"),
        atc=float.fromhex("-0x1.e5ad3f77d6e18p-2"),
        ato=float.fromhex("-0x1.a52cb7e45f236p-6"),
        se_ate=float.fromhex("0x1.25012d9a044f1p-10"),
        se_att=float.fromhex("0x1.2166d578564c6p-10"),
        se_atc=float.fromhex("0x1.299ee1a1dd605p-10"),
        se_ato=float.fromhex("0x1.bcdafe3a7d06cp-11"),
    ),
}


def reference_truth(
    outcome_model: int, draws: int = DEFAULT_TRUTH_DRAWS
) -> TrueEstimands:
    """The population values every study compares against: pinned constants,
    equal bit for bit to integrating ``DEFAULT_TRUTH_DRAWS`` draws of
    ``outcome_model``'s fixed truth stream.

    ``draws`` must be ``DEFAULT_TRUTH_DRAWS``; other draws or streams go
    through :func:`true_estimands`.
    """
    _check_outcome_model(outcome_model)
    if draws != DEFAULT_TRUTH_DRAWS:
        raise ValueError(
            f"reference_truth has only {DEFAULT_TRUTH_DRAWS} draws, got {draws!r}; "
            "call true_estimands for other draws"
        )
    return _PINNED_TRUTH[outcome_model]


def _model1_effect_feature(X: NDArray[np.float64]) -> NDArray[np.float64]:
    return np.exp(X[:, 0] + 0.5 * X[:, 2] * X[:, 4])


def propensity_design(correct: bool) -> DesignSpec:
    """Correct: the exact terms of the assignment log odds. Misspecified:
    main effects only, which misses the curvature and the product term."""
    if correct:
        return parse_design("x1 + x2^2 + x3*x5", _COVARIATE_NAMES)
    return main_effects(_COVARIATE_NAMES)


def outcome_design(correct: bool, outcome_model: int) -> tuple[DesignSpec, DesignSpec]:
    """(main, treatment-interaction) design pair for the outcome model.

    The correct specification reproduces the true conditional mean exactly:
    main part ``x2^2 + x3`` and an interaction carrying the effect surface.
    The misspecified one is main effects in both parts.
    """
    _check_outcome_model(outcome_model)
    if not correct:
        me = main_effects(_COVARIATE_NAMES)
        return me, me
    main = parse_design("x2^2 + x3", _COVARIATE_NAMES)
    if outcome_model == 1:
        inter = DesignSpec(
            terms=(TransformTerm(name="exp(x1+0.5*x3*x5)", fn=_model1_effect_feature),)
        )
    else:
        inter = parse_design("x1 + x3*x5", _COVARIATE_NAMES)
    return main, inter


@dataclass(frozen=True)
class SimulationDesign:
    """Study configuration; everything here is picklable and hashable."""

    outcome_model: int = 1
    n: int = 1000
    replications: int = 1000
    seed: int = 0
    estimators: tuple[str, ...] = ("regression", "ipw", "dr")
    estimands: tuple[str, ...] = ("ate", "att", "atc", "ato")
    pi_specs: tuple[bool, ...] = (True, False)
    m_specs: tuple[bool, ...] = (True, False)
    truncate: tuple[float, float] | None = None
    workers: int = 1


Cell = tuple[str, bool | None, bool | None, str]


def study_cells(design: SimulationDesign) -> list[Cell]:
    """(estimator, pi_correct, m_correct, estimand) combinations the study
    fills in: those :func:`~wate.estimators.has_formula` allows, so the
    regression rows, which fit no propensity model, have no overlap
    column. Raises ``ValueError`` if no cell remains."""
    rows: list[tuple[str, bool | None, bool | None]] = []
    for est in design.estimators:
        if est == "regression":
            rows.extend((est, None, mc) for mc in design.m_specs)
        elif est == "ipw":
            rows.extend((est, pc, None) for pc in design.pi_specs)
        elif est == "dr":
            rows.extend(
                (est, pc, mc) for pc in design.pi_specs for mc in design.m_specs
            )
        else:
            raise ValueError(f"unknown estimator token {est!r}")
    cells: list[Cell] = []
    for est, pc, mc in rows:
        for estimand in design.estimands:
            if estimand not in _TARGETS:
                raise ValueError(f"unknown estimand token {estimand!r}")
            if not has_formula(_KIND_BY_TOKEN[est], _TARGETS[estimand]):
                continue
            cells.append((est, pc, mc, estimand))
    if not cells:
        raise ValueError(
            f"no study cells: estimators {list(design.estimators)} have no formula "
            f"for estimands {list(design.estimands)}"
        )
    return cells


_KIND_BY_TOKEN = {
    "regression": EstimatorKind.REGRESSION,
    "ipw": EstimatorKind.IPW_NORMALIZED,
    "dr": EstimatorKind.AIPW,
}


def _cell_pipeline(design: SimulationDesign, cell: Cell) -> EstimationPipeline:
    est, pc, mc, estimand = cell
    main, inter = (None, None) if mc is None else outcome_design(mc, design.outcome_model)
    return EstimationPipeline(
        estimand=_TARGETS[estimand],
        kind=_KIND_BY_TOKEN[est],
        pi_design=None if pc is None else propensity_design(pc),
        m_design=main,
        m_interaction=inter,
        truncate=design.truncate,
    )


def _replicate_values(
    design: SimulationDesign, plan: CellPlan, rep: int
) -> NDArray[np.float64]:
    """One replication: draw data, then fill every cell, fitting each working
    model once. Failed fits or estimates become NaN."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=design.seed, spawn_key=(rep,))
    )
    return cell_values(generate_dataset(design.outcome_model, design.n, rng), plan)


@dataclass(frozen=True)
class CellStats:
    estimator: str
    pi_correct: bool | None
    m_correct: bool | None
    estimand: str
    n_ok: int
    n_failed: int
    bias: float | None
    sd: float | None
    rmse: float | None
    mc_se: float | None


@dataclass(frozen=True, eq=False)
class SimulationReport:
    design: SimulationDesign
    truth: TrueEstimands
    cells: tuple[CellStats, ...]

    def cell(
        self,
        estimator: str,
        pi_correct: bool | None,
        m_correct: bool | None,
        estimand: str,
    ) -> CellStats:
        for c in self.cells:
            if (
                c.estimator == estimator
                and c.pi_correct == pi_correct
                and c.m_correct == m_correct
                and c.estimand == estimand
            ):
                return c
        raise KeyError((estimator, pi_correct, m_correct, estimand))

    def to_csv_text(self) -> str:
        def num(v: float | None) -> str:
            return "" if v is None else "%.10g" % v

        def spec(v: bool | None) -> str:
            if v is None:
                return ""
            return "correct" if v else "misspecified"

        lines = [
            "outcome_model,n,replications,estimator,pi_spec,m_spec,estimand,"
            "truth,bias,sd,rmse,mc_se,n_ok,n_failed"
        ]
        for c in self.cells:
            lines.append(
                ",".join(
                    [
                        str(self.design.outcome_model),
                        str(self.design.n),
                        str(self.design.replications),
                        c.estimator,
                        spec(c.pi_correct),
                        spec(c.m_correct),
                        c.estimand,
                        num(self.truth.value(c.estimand)),
                        num(c.bias),
                        num(c.sd),
                        num(c.rmse),
                        num(c.mc_se),
                        str(c.n_ok),
                        str(c.n_failed),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def to_markdown_text(self) -> str:
        def mark(v: bool | None) -> str:
            if v is None:
                return "-"
            return "yes" if v else "no"

        estimands = [e for e in self.design.estimands]
        header = "| estimator | pi ok | m ok |"
        rule = "|---|---|---|"
        for e in estimands:
            header += f" {e} bias | {e} rmse |"
            rule += "---|---|"
        row_keys: list[tuple[str, bool | None, bool | None]] = []
        for c in self.cells:
            key = (c.estimator, c.pi_correct, c.m_correct)
            if key not in row_keys:
                row_keys.append(key)
        lines = [
            f"Outcome model {self.design.outcome_model}, n = {self.design.n}, "
            f"{self.design.replications} replications.",
            "",
            header,
            rule,
        ]
        by_key = {
            (c.estimator, c.pi_correct, c.m_correct, c.estimand): c for c in self.cells
        }
        for est, pc, mc in row_keys:
            row = f"| {est} | {mark(pc)} | {mark(mc)} |"
            for e in estimands:
                c = by_key.get((est, pc, mc, e))
                if c is None:
                    row += " - | - |"
                elif c.bias is None:
                    row += " ! | ! |"
                else:
                    row += f" {c.bias:.2f} | {c.rmse:.2f} |"
            lines.append(row)
        return "\n".join(lines) + "\n"


def run_study(design: SimulationDesign) -> SimulationReport:
    """Run every replication, aggregate per-cell bias/SD/RMSE against the
    pinned population values. Output is independent of ``workers``."""
    cells = study_cells(design)
    reps = design.replications
    if reps < 2:
        raise ValueError("need at least 2 replications")
    plan = plan_cells([_cell_pipeline(design, cell) for cell in cells])
    matrix = np.array(
        parallel_map(functools.partial(_replicate_values, design, plan), reps, design.workers)
    )
    truth = reference_truth(design.outcome_model)
    stats = []
    for j, (est, pc, mc, estimand) in enumerate(cells):
        col = matrix[:, j]
        ok = col[np.isfinite(col)]
        n_ok = int(ok.shape[0])
        n_failed = reps - n_ok
        if n_ok >= 2:
            tau = truth.value(estimand)
            bias = float(np.mean(ok) - tau)
            sd = float(np.std(ok, ddof=1))
            rmse = float(np.sqrt(np.mean((ok - tau) ** 2)))
            mc_se = float(sd / np.sqrt(n_ok))
        else:
            bias = sd = rmse = mc_se = None
        stats.append(
            CellStats(
                estimator=est,
                pi_correct=pc,
                m_correct=mc,
                estimand=estimand,
                n_ok=n_ok,
                n_failed=n_failed,
                bias=bias,
                sd=sd,
                rmse=rmse,
                mc_se=mc_se,
            )
        )
    return SimulationReport(design=design, truth=truth, cells=tuple(stats))
