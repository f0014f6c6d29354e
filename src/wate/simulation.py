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
the population values of ``reference_truth``. The pinned table
``_PINNED_TRUTH`` is the library's only source of them: a Monte Carlo
integration of ``DEFAULT_TRUTH_DRAWS`` draws on a fixed stream of its own,
stored as constants. The tests reproduce the table bit for bit from that
stream and check it against Gauss-Hermite quadrature.

Replicate r draws its data from the stream keyed by ``(seed, r)``. The
replicates are split over the ``workers`` processes first, and each process
fills its share a stack at a time, through the bootstrap's ``_map_stacks``:
a stack is the fewest replicates that hold at least ``data._BATCH_ROWS``
(12288) rows, ``max(1, ceil(12288 / n))``. Each stream draws its replicate
straight into one :class:`~wate.data._Stack`, the plain triple ``X``, ``A``
and ``Y``, whose finite 0/1 draws need no check; each design is evaluated
once on it (an outcome design once per part of an outcome fit, see
:mod:`wate.models`), each working model fitted on the whole stack at once
and every cell filled by one pass over it, which gives every replicate the
bits it gets alone: the results do not depend on the shares, the stacks or
``workers``. :func:`generate_dataset` draws through the same helper,
``_draw``, as a stack of one, and hands the dataset read-only arrays, which
it keeps instead of copying.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .bootstrap import _map_stacks
from .data import CounterfactualDataset, _Stack, _replicate_rng
from .design import DesignSpec, TransformTerm, main_effects, parse_design
from .estimators import (
    CellPlan,
    EstimationPipeline,
    EstimatorKind,
    _ROW_MODELS,
    _cell_value_rows,
    has_formula,
    plan_cells,
)
from .models import _sigmoid
from .targets import STANDARD_TARGETS

_COVARIATE_NAMES = ("x1", "x2", "x3", "x4", "x5")

# Draws behind the study's population values.
DEFAULT_TRUTH_DRAWS = 10**6

# Every study row with a model crosses correct and misspecified ones.
_SPECS = (True, False)


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
    reproducibility contract; tests pin it. ``n < 1`` is refused before any
    draw.
    """
    _check_outcome_model(outcome_model)
    if n < 1:
        raise ValueError(f"need at least 1 row, got n = {n}")
    X, A, y0, effect = (arr[0] for arr in _draw(outcome_model, n, [rng]))
    y1 = y0 + effect
    Y = np.where(A == 1.0, y1, y0)
    pi = true_propensity(X)
    # Fresh arrays made read-only are kept by the dataset, not copied.
    for arr in (X, A, Y, y1, y0, pi):
        arr.flags.writeable = False
    return CounterfactualDataset(
        X=X,
        A=A,
        Y=Y,
        covariate_names=_COVARIATE_NAMES,
        y1=y1,
        y0=y0,
        pi_true=pi,
    )


def _draw(
    outcome_model: int, n: int, rngs: Sequence[np.random.Generator]
) -> tuple[NDArray[np.float64], ...]:
    """One dataset of size n from each stream of ``rngs``, as a stack:
    ``X`` (b, n, 5), then ``A``, the untreated outcome ``y0`` and the
    treatment effect, each (b, n). Each stream draws the covariates, the
    assignment uniforms and the noise, in that order; the rest is
    elementwise arithmetic on the whole stack, which gives each dataset the
    bits it gets alone. The true propensity is dropped once ``A`` is drawn,
    and ``y1`` is never formed: the study turns ``y0`` into ``Y`` in place."""
    b = len(rngs)
    X = np.empty((b, n, 5))
    uniforms = np.empty((b, n))
    noise = np.empty((b, n))
    for rng, x, u, e in zip(rngs, X, uniforms, noise):
        rng.standard_normal(out=x)
        rng.random(out=u)
        rng.standard_normal(out=e)
    rows = X.reshape(-1, 5)
    A = (uniforms < true_propensity(rows).reshape(b, n)).astype(np.float64)
    y0 = 1.0 + X[:, :, 1] ** 2 + X[:, :, 2] + noise
    return X, A, y0, treatment_effect(outcome_model, rows).reshape(b, n)


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


# Monte Carlo integration of DEFAULT_TRUTH_DRAWS draws on each outcome model's
# own fixed stream; tests/test_truth_golden.py reproduces every bit.
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
    """The population values every study compares against: ``_PINNED_TRUTH``,
    the library's only table of them. The tests reproduce it bit for bit from
    its fixed stream of ``DEFAULT_TRUTH_DRAWS`` draws and check it against
    Gauss-Hermite quadrature. Other ``draws`` are refused: the library
    integrates nothing.
    """
    _check_outcome_model(outcome_model)
    if draws != DEFAULT_TRUTH_DRAWS:
        raise ValueError(
            f"reference_truth has only the pinned {DEFAULT_TRUTH_DRAWS}-draw values, "
            f"got draws={draws!r}"
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
        if est not in _KIND_BY_TOKEN:
            raise ValueError(f"unknown estimator token {est!r}")
        # A model the row does not fit has no specification to vary.
        pcs, mcs = ((_SPECS if fits else (None,)) for fits in _ROW_MODELS[_KIND_BY_TOKEN[est]])
        rows.extend((est, pc, mc) for pc in pcs for mc in mcs)
    cells: list[Cell] = []
    for est, pc, mc in rows:
        for estimand in design.estimands:
            if estimand not in STANDARD_TARGETS:
                raise ValueError(f"unknown estimand token {estimand!r}")
            if not has_formula(_KIND_BY_TOKEN[est], STANDARD_TARGETS[estimand]):
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
        estimand=STANDARD_TARGETS[estimand],
        kind=_KIND_BY_TOKEN[est],
        pi_design=None if pc is None else propensity_design(pc),
        m_design=main,
        m_interaction=inter,
        truncate=design.truncate,
    )


def _replicate_values(
    design: SimulationDesign, plan: CellPlan, reps: range
) -> list[NDArray[np.float64]]:
    """The replications ``reps``: draw each one's data from its own stream
    into one stack, then fill every cell, fitting each working model once
    per stack. Failed fits or estimates become NaN."""
    rngs = [_replicate_rng(design.seed, rep) for rep in reps]
    X, A, Y, effect = _draw(design.outcome_model, design.n, rngs)
    # Y holds y0 until the effect is added where treated: the bits of
    # np.where(A == 1.0, y0 + effect, y0).
    np.putmask(Y, A == 1.0, Y + effect)
    del effect
    return _cell_value_rows(_Stack(X, A, Y), plan)


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
    """A study's results as data only; ``wate simulate`` formats them."""

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


def run_study(design: SimulationDesign) -> SimulationReport:
    """Run every replication, aggregate per-cell bias/SD/RMSE against the
    pinned population values. Output is independent of ``workers``."""
    cells = study_cells(design)
    reps = design.replications
    if reps < 2:
        raise ValueError("need at least 2 replications")
    if design.n < 1:
        raise ValueError(f"need at least 1 row per replication, got n = {design.n}")
    plan = plan_cells([_cell_pipeline(design, cell) for cell in cells])
    matrix = np.array(
        _map_stacks(
            functools.partial(_replicate_values, design, plan), reps, design.n, design.workers
        )
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
