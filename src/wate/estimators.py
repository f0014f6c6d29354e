"""Point estimators for weighted average treatment effects.

Every estimator is a short formula over the observed ``(A, Y)``, the target
weights ``h`` and three fitted vectors: the propensity ``pi`` and the arm
means ``m1`` and ``m0``. A :class:`Nuisance` bundle holds those vectors for
one dataset.

:func:`estimate` estimates one cell; the formula follows from the estimator
kind and the target:

* the unweighted difference in arm means, the average effect with no model;
* outcome regression: plug fitted arm means into the weighted contrast;
* inverse probability weighting, in the arm-normalized form;
* augmented IPW, which combines both models and stays consistent when
  either one is correct.

For targets whose weight is linear in the propensity, h = a + b*pi, the
augmented estimator admits a doubly robust form whose augmentation uses only
model residuals; the effects on the treated and on the controls are its
(a, b) = (0, 1) and (1, -1) cases, and the augmented kind routes all three to
it. The treated/control targets also admit regression-only forms that need no
propensity model at all. Any other h, including the generic augmented form
for the treated, is a :func:`~wate.targets.covariate_target`.
:func:`has_formula` says which cells a report or study row can fill.

Each formula is a kernel that returns the checked value and nothing else.
The weight mass and effective sample sizes of a :class:`Diagnostics` are
read from the shared terms only when a :class:`PointEstimate` is built.

:func:`fill_cells` is the one fit-then-fill engine, in two steps.
:func:`plan_cells` resolves a list of :class:`EstimationPipeline` cells once
into a :class:`CellPlan`. It lists each distinct working model once in
``CellPlan.fits``, keyed as ``("propensity", design, truncate)`` or
``("outcome", main, interaction)``. It picks each cell's kernel and the kind
the cell reports. It gives each propensity fit, and the cells that fit none,
the targets its cells read ``h`` of, the targets linear in the propensity
first. The pass over one dataset then fits each listed model on first use
and estimates every cell from the vectors the fits carry, with no prediction
and no comparison of designs. Per propensity fit, it evaluates the targets as
the rows of one C-contiguous (targets, n) block ``H`` and computes each term
on the whole block, once:

* the row sums of ``H``, the weights ``A*(H/pi)`` and ``(1-A)*(H/(1-pi))``
  and their sums and effective sample sizes;
* the six sub-terms of the augmented contrast and the doubly robust
  residual, which every outcome fit shares;
* per outcome fit, the numerators of the regression, augmented and doubly
  robust estimates, one per row.

Every sum over a block is a row sum. numpy sums each row of a C-contiguous
block as it sums that row alone, so a cell gets the bits a pass over its one
target gives (a test pins this property of numpy). ``m1 - m0`` is computed
once per outcome fit. An error raised evaluating a target's ``h`` is kept
with its row and raised again for every cell that reads the row.
:func:`estimate` makes the same pass over a one-cell plan.

The bootstrap, the command line report and the Monte Carlo study each build
one plan and ship it to their workers. :func:`fill_cells` returns point
estimates with their diagnostics; :func:`cell_values` makes the same pass
and keeps only the values. Study and bootstrap replicates call its form over
many same-n datasets, ``_cell_value_rows``, a stack of replicates at a time:
each propensity fit of the plan runs on the whole stack as one stacked IRLS,
then each dataset gets its truncation and checks, its outcome fits and its
pass, as one dataset alone does, and the same bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Hashable, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .data import ObservationalDataset
from .design import DesignSpec
from .errors import EstimationError, FitFailure, MissingModelError, WateError
from .models import (
    OutcomeModel,
    PropensityModel,
    _fit_propensities,
    fit_outcome,
    predict_outcome,
    predict_propensity,
    truncate_propensity,
)
from .targets import (
    TargetFunction,
    TargetKind,
    _checked_pi,
    _h_values,
)


class EstimatorKind(enum.Enum):
    UNWEIGHTED = "unweighted"
    REGRESSION = "regression"
    IPW_NORMALIZED = "ipw"
    AIPW = "aipw"
    DR_LINEAR_IN_PI = "dr"


@dataclass(frozen=True)
class Diagnostics:
    """Weight mass and effective sample sizes behind an estimate."""

    h_total: float
    ess_treated: float
    ess_control: float


@dataclass(frozen=True, eq=False)
class PointEstimate:
    value: float
    estimator: EstimatorKind
    estimand: TargetFunction
    n_used: int
    diagnostics: Diagnostics


def _ess(total: float, sum_sq: float) -> float:
    """``total**2 / sum_sq`` for weights with sum ``total`` and sum of
    squares ``sum_sq``; 0 when the weights have no positive mass."""
    if total <= 0.0:
        return 0.0
    return total * total / sum_sq


@dataclass(frozen=True, eq=False)
class Nuisance:
    """Fitted vectors on the rows of ``ds``: the propensity ``pi`` (after any
    truncation) and the arm means ``m1``/``m0`` of one outcome model. A vector
    is ``None`` when its model was not fitted. The vectors are used as given;
    :meth:`from_models` builds a bundle from fitted models and checks an
    explicit ``pi_hat``."""

    ds: ObservationalDataset
    pi: NDArray[np.float64] | None = None
    m1: NDArray[np.float64] | None = None
    m0: NDArray[np.float64] | None = None

    @classmethod
    def from_models(
        cls,
        ds: ObservationalDataset,
        pm: PropensityModel | None = None,
        om: OutcomeModel | None = None,
        pi_hat: NDArray[np.float64] | None = None,
    ) -> "Nuisance":
        """Explicit ``pi_hat`` (e.g. a truncated vector) wins over ``pm``.
        Each arm of ``om`` is predicted once."""
        pi = None
        if pi_hat is not None:
            pi = _checked_pi(pi_hat, ds.n, EstimationError)
        elif pm is not None:
            pi = predict_propensity(pm, ds.X)
        if om is None:
            return cls(ds, pi)
        return cls(ds, pi, predict_outcome(om, ds.X, 1), predict_outcome(om, ds.X, 0))


# --- the terms of one pass ----------------------------------------------------


_MISSING = object()


class _Pass:
    """One fill over ``ds``: the vectors of each fit of ``plan``, from
    ``vectors(slot)`` (``pi``, or ``(m1, m0)``) on first use, the
    :class:`_Block` of each propensity fit, ``m1 - m0`` of each outcome fit
    and each arm's indicator and size."""

    def __init__(
        self, ds: ObservationalDataset, plan: "CellPlan", vectors: Callable[[int], object]
    ):
        self.ds = ds
        self.plan = plan
        self._vectors = vectors
        self._fits: dict[int, object] = {}
        self._blocks: dict[int, _Block] = {}
        self._m_diff: dict[int, NDArray[np.float64]] = {}

    def fitted(self, slot: int):
        """The vectors of fit ``slot``; a failed fit raises
        :class:`FitFailure` for every cell that needs it."""
        value = self._fits.get(slot, _MISSING)
        if value is _MISSING:
            try:
                value = self._vectors(slot)
            except WateError as exc:
                value = FitFailure(self.plan.fits[slot][0], exc.with_traceback(None))
            self._fits[slot] = value
        if isinstance(value, WateError):
            raise value
        return value

    def block(self, p: int) -> "_Block":
        block = self._blocks.get(p)
        if block is None:
            block = self._blocks[p] = _Block(self, p)
        return block

    def m_diff(self, m: int) -> NDArray[np.float64]:
        diff = self._m_diff.get(m)
        if diff is None:
            m1, m0 = self.fitted(m)
            diff = self._m_diff[m] = m1 - m0
        return diff

    @cached_property
    def not_A(self) -> NDArray[np.float64]:
        return 1.0 - self.ds.A

    @cached_property
    def arms(self) -> tuple[tuple[NDArray[np.float64], float], ...]:
        """The indicators ``A`` and ``1 - A`` of the treated and the
        controls, each with its arm's size."""
        A, not_A = self.ds.A, self.not_A
        return (A, float(A.sum())), (not_A, float(not_A.sum()))


class _Block:
    """The targets the plan lists for propensity fit ``p`` (-1: the cells
    that fit none), as the rows of one C-contiguous (targets, n) block ``H``.
    Row i is ``h`` of target i from :func:`~wate.targets._h_values`, which
    checks its length, finiteness and sign, or zeros when that raised; the
    error is kept, without its traceback, and raised for every cell that
    reads the row. The first rows are the targets linear in the propensity.
    The terms of an outcome fit take the pass, which the block does not
    keep: a block that kept it would tie the pass into a reference cycle,
    whose arrays only the cycle collector frees."""

    def __init__(self, q: _Pass, p: int):
        ds = self.ds = q.ds
        self.not_A = q.not_A
        self.pi = None if p < 0 else q.fitted(p)
        targets, self.coefficients = q.plan.blocks[p]
        self.H = np.zeros((len(targets), ds.n))
        self.errors: list[WateError | None] = [None] * len(targets)
        for i, target in enumerate(targets):
            try:
                self.H[i] = _h_values(target, ds.X, self.pi)
            except WateError as exc:
                self.errors[i] = exc.with_traceback(None)
        self.totals = self.H.sum(axis=1)
        self._per_fit: dict[tuple[str, int], NDArray[np.float64]] = {}

    def h_total(self, row: int) -> float:
        """``sum(h)`` of the target in ``row``; raises the error its ``h``
        raised."""
        error = self.errors[row]
        if error is not None:
            raise error
        return float(self.totals[row])

    def h_checked(self, row: int) -> float:
        """``sum(h)``, refused when ``h`` puts no mass on the sample."""
        total = self.h_total(row)
        if total <= 0.0:
            raise EstimationError("target function puts zero mass on the sample")
        return total

    @cached_property
    def not_pi(self) -> NDArray[np.float64]:
        return 1.0 - self.pi

    @cached_property
    def weights(self) -> tuple[NDArray[np.float64], ...]:
        """``tw = A*(H/pi)``, ``cw = (1-A)*(H/(1-pi))`` and their row sums.
        ``A`` is exactly 0 or 1, so ``A*(h/pi)`` equals ``(A*h)/pi`` to the
        last bit."""
        tw = self.ds.A * (self.H / self.pi)
        cw = self.not_A * (self.H / self.not_pi)
        return tw, cw, tw.sum(axis=1), cw.sum(axis=1)

    @cached_property
    def weighted_outcomes(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """Row sums of ``tw*Y`` and ``cw*Y``."""
        tw, cw, _, _ = self.weights
        Y = self.ds.Y
        return (tw * Y).sum(axis=1), (cw * Y).sum(axis=1)

    @cached_property
    def weight_squares(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """Row sums of ``tw*tw`` and ``cw*cw``."""
        tw, cw, _, _ = self.weights
        return (tw * tw).sum(axis=1), (cw * cw).sum(axis=1)

    @cached_property
    def arm_squares(self) -> tuple[tuple[NDArray[np.float64], NDArray[np.float64]], ...]:
        """Row sums of ``h`` and ``h*h`` over the treated rows, then over the
        control rows."""
        A = self.ds.A
        sums = []
        for arm in (A == 1.0, A == 0.0):
            h = np.compress(arm, self.H, axis=1)
            sums.append((h.sum(axis=1), (h * h).sum(axis=1)))
        return tuple(sums)

    @cached_property
    def contrast_terms(self) -> tuple[NDArray[np.float64], ...]:
        """``A*Y/pi``, ``(A-pi)/pi``, ``(1-A)*Y/(1-pi)`` and ``(A-pi)/(1-pi)``,
        grouped as in the augmented contrast."""
        A, Y, pi, not_pi = self.ds.A, self.ds.Y, self.pi, self.not_pi
        A_pi = A - pi
        return A * Y / pi, A_pi / pi, self.not_A * Y / not_pi, A_pi / not_pi

    @cached_property
    def residual_terms(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """``A/pi`` and ``(1-A)/(1-pi)``."""
        return self.ds.A / self.pi, self.not_A / self.not_pi

    @cached_property
    def observed(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """``a + b*A`` of each leading target ``a + b*pi``, the linear
        target with the observed treatment in place of ``pi``, and the row
        sums."""
        a, b = self.coefficients
        h_obs = a + b * self.ds.A
        return h_obs, h_obs.sum(axis=1)

    def _once(self, name: str, m: int, compute: Callable[[], NDArray[np.float64]]):
        value = self._per_fit.get((name, m))
        if value is None:
            value = self._per_fit[name, m] = compute()
        return value

    def regression(self, q: _Pass, m: int) -> NDArray[np.float64]:
        """Row sums of ``H*(m1 - m0)``."""
        return self._once("regression", m, lambda: (self.H * q.m_diff(m)).sum(axis=1))

    def augmented(self, q: _Pass, m: int) -> NDArray[np.float64]:
        """Row sums of ``H`` times the augmented contrast ``arm1 - arm0``."""

        def compute():
            m1, m0 = q.fitted(m)
            ay_pi, a_pi, ay_not_pi, a_not_pi = self.contrast_terms
            arm1 = ay_pi - a_pi * m1
            arm0 = ay_not_pi + a_not_pi * m0
            return (self.H * (arm1 - arm0)).sum(axis=1)

        return self._once("augmented", m, compute)

    def doubly_robust(self, q: _Pass, m: int) -> NDArray[np.float64]:
        """Row sums of ``(a + b*A)*(m1 - m0) + h*(A/pi*(Y - m1) -
        (1-A)/(1-pi)*(Y - m0))`` over the linear targets."""

        def compute():
            m1, m0 = q.fitted(m)
            Y = self.ds.Y
            treated, control = self.residual_terms
            residual = treated * (Y - m1) - control * (Y - m0)
            h_obs, _ = self.observed
            h = self.H[:h_obs.shape[0]]
            return (h_obs * q.m_diff(m) + h * residual).sum(axis=1)

        return self._once("doubly_robust", m, compute)


def _finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise EstimationError(f"{what} evaluated to a non-finite value")
    return value


def _needs_propensity(p: int, reader: str) -> None:
    """Raise :class:`MissingModelError` naming ``reader`` for a cell that
    fits no propensity (``p = -1``)."""
    if p < 0:
        raise MissingModelError(f"{reader} needs a propensity model or pi_hat")


def _needs_outcome(m: int, reader: str) -> None:
    """Raise :class:`MissingModelError` naming ``reader`` for a cell that
    fits no outcome model (``m = -1``)."""
    if m < 0:
        raise MissingModelError(f"{reader} needs an outcome model")


# --- kernels over (A, Y, h, pi, m1, m0) ---------------------------------------


class _Cell(NamedTuple):
    """A pipeline resolved by :func:`plan_cells`: its kernel, the kind it
    reports, its target, its propensity and outcome fit slots (-1: none)
    and its target's row in the block of its propensity fit (-1: none)."""

    kernel: Callable[[_Pass, "_Cell"], float]
    reported: EstimatorKind
    target: TargetFunction
    p: int
    m: int
    row: int


def _unweighted(q: _Pass, c: _Cell) -> float:
    """``mean(Y[A==1]) - mean(Y[A==0])``: the average effect when h = 1 and
    no model is fitted."""
    if c.target.kind is not TargetKind.ATE:
        raise EstimationError(f"the unweighted difference has no {c.target.label!r} form")
    A, Y = q.ds.A, q.ds.Y
    treated, control = Y[A == 1.0], Y[A == 0.0]
    if treated.size == 0 or control.size == 0:
        raise EstimationError("an arm is empty")
    return _finite(np.mean(treated) - np.mean(control), "unweighted estimate")


def _regression_on_arm(q: _Pass, c: _Cell) -> float:
    _needs_outcome(c.m, "regression estimator")
    m1, m0 = q.fitted(c.m)
    treated = c.target.kind is TargetKind.ATT
    arm, size = q.arms[0 if treated else 1]
    who = "treated" if treated else "control"
    if size < 1.0:
        raise EstimationError(f"no {who} observations")
    contrast = q.ds.Y - m0 if treated else m1 - q.ds.Y
    return _finite((arm * contrast).sum() / size, f"{who} regression estimate")


def _dr_linear(q: _Pass, c: _Cell) -> float:
    """sum [ (a + b*A)*(m1 - m0) + (a + b*pi) * (A/pi*(Y - m1) - (1-A)/(1-pi)*(Y - m0)) ]
    / sum (a + b*A). The denominator replaces pi with the observed treatment
    indicator, which is what makes the estimator consistent when only one
    model is right."""
    _needs_propensity(c.p, "doubly robust estimator")
    _needs_outcome(c.m, "doubly robust estimator")
    block = q.block(c.p)
    # The sign of h is checked first, by the same code and with the same
    # message as for every other estimator of this target.
    block.h_total(c.row)
    denom = float(block.observed[1][c.row])
    if denom <= 0.0:
        raise EstimationError("denominator sum(a + b*A) is not positive")
    return _finite(block.doubly_robust(q, c.m)[c.row] / denom, "doubly robust estimate")


def _no_closed_form(q: _Pass, c: _Cell) -> float:
    raise EstimationError(
        f"closed-form doubly robust estimator only supports targets linear in "
        f"the propensity, not {c.target.label!r}"
    )


def _block_of(q: _Pass, c: _Cell) -> _Block:
    """The block holding the cell's ``h``, after the checks every kernel of
    a generic ``h`` makes first: a target that reads ``pi`` needs one, and
    ``h`` must have evaluated."""
    if c.target.depends_on_propensity:
        _needs_propensity(c.p, f"target {c.target.label!r}")
    block = q.block(c.p)
    block.h_total(c.row)
    return block


def _regression(q: _Pass, c: _Cell) -> float:
    block = _block_of(q, c)
    _needs_outcome(c.m, "regression estimator")
    total = block.h_checked(c.row)
    return _finite(block.regression(q, c.m)[c.row] / total, "regression estimate")


def _ipw(q: _Pass, c: _Cell) -> float:
    block = _block_of(q, c)
    _needs_propensity(c.p, "weighting estimator")
    _, _, st, sc = block.weights
    st, sc = float(st[c.row]), float(sc[c.row])
    if st <= 0.0 or sc <= 0.0:
        raise EstimationError("zero weight mass in one arm")
    ty, cy = block.weighted_outcomes
    return _finite(ty[c.row] / st - cy[c.row] / sc, "ipw estimate")


def _aipw(q: _Pass, c: _Cell) -> float:
    block = _block_of(q, c)
    _needs_propensity(c.p, "augmented estimator")
    _needs_outcome(c.m, "augmented estimator")
    total = block.h_checked(c.row)
    return _finite(block.augmented(q, c.m)[c.row] / total, "augmented estimate")


_GENERIC = {
    EstimatorKind.REGRESSION: _regression,
    EstimatorKind.IPW_NORMALIZED: _ipw,
    EstimatorKind.AIPW: _aipw,
}


def _on_arm(kind: EstimatorKind, target: TargetFunction) -> bool:
    """Whether ``(kind, target)`` is a regression over one arm's rows."""
    return kind is EstimatorKind.REGRESSION and target.kind in (TargetKind.ATT, TargetKind.ATC)


def _linear_coefficients(target: TargetFunction) -> tuple[float, float] | None:
    """(a, b) with h = a + b*pi, for the targets that have that form."""
    if target.kind is TargetKind.ATT:
        return 0.0, 1.0
    if target.kind is TargetKind.ATC:
        return 1.0, -1.0
    if target.kind is TargetKind.LINEAR:
        return target.a, target.b
    return None


def has_formula(kind: EstimatorKind, target: TargetFunction) -> bool:
    """Whether ``(kind, target)`` has a formula without a model its row does
    not fit: the unweighted row fits none, the regression row no propensity
    (the treated and controls have indicator forms). The doubly robust closed
    form exists only for targets linear in the propensity."""
    if kind is EstimatorKind.UNWEIGHTED:
        return target.kind is TargetKind.ATE
    if kind is EstimatorKind.REGRESSION:
        return (
            target.kind in (TargetKind.ATT, TargetKind.ATC)
            or not target.depends_on_propensity
        )
    if kind is EstimatorKind.DR_LINEAR_IN_PI:
        return _linear_coefficients(target) is not None
    return True


def _route(
    kind: EstimatorKind, target: TargetFunction
) -> tuple[EstimatorKind, Callable[[_Pass, _Cell], float]]:
    """The kind a ``(kind, target)`` cell reports and the kernel for that
    pair. The augmented kind on a target linear in the propensity runs, and
    reports, the doubly robust closed form."""
    if kind is EstimatorKind.UNWEIGHTED:
        return kind, _unweighted
    if _on_arm(kind, target):
        return kind, _regression_on_arm
    if kind in (EstimatorKind.AIPW, EstimatorKind.DR_LINEAR_IN_PI):
        if _linear_coefficients(target) is not None:
            return EstimatorKind.DR_LINEAR_IN_PI, _dr_linear
        if kind is EstimatorKind.DR_LINEAR_IN_PI:
            return kind, _no_closed_form
    if kind not in _GENERIC:
        raise EstimationError(f"unknown estimator kind {kind!r}")
    return kind, _GENERIC[kind]


def _diagnostics(q: _Pass, c: _Cell) -> Diagnostics:
    """The weight mass and effective sample sizes behind a cell, read from
    the terms its kernel computed: the arm's size for a regression over one
    arm, the ESS of ``h`` per arm for the kinds that weight no row by
    ``pi``, the ESS of the arm weights for the rest."""
    if c.kernel is _regression_on_arm:
        if c.target.kind is TargetKind.ATT:
            size = q.arms[0][1]
            return Diagnostics(size, size, 0.0)
        size = q.arms[1][1]
        return Diagnostics(size, 0.0, size)
    block = q.block(c.p)
    if c.reported in (EstimatorKind.UNWEIGHTED, EstimatorKind.REGRESSION):
        (t1, s1), (t0, s0) = block.arm_squares
    else:
        _, _, t1, t0 = block.weights
        s1, s0 = block.weight_squares
    r = c.row
    return Diagnostics(
        block.h_total(r), _ess(float(t1[r]), float(s1[r])), _ess(float(t0[r]), float(s0[r]))
    )


def estimate(
    ds: ObservationalDataset | Nuisance,
    kind: EstimatorKind,
    target: TargetFunction,
    pm: PropensityModel | None = None,
    om: OutcomeModel | None = None,
    pi_hat: NDArray[np.float64] | None = None,
) -> PointEstimate:
    """Estimate one (estimator, target) pair.

    ``ds`` is a dataset whose fitted models are passed alongside, or a
    :class:`Nuisance` bundle of already fitted vectors (then pass no model),
    which is used as is. ``pi_hat`` overrides model predictions when given
    (used to inject percentile-truncated propensities). The augmented
    estimator for the treated, control and a + b*pi targets is the doubly
    robust closed form, labelled :attr:`EstimatorKind.DR_LINEAR_IN_PI`; the
    generic augmented form for such an h is a covariate target, e.g.
    ``covariate_target(functools.partial(predict_propensity, pm), "pi")``.
    """
    if not isinstance(ds, Nuisance):
        c = Nuisance.from_models(ds, pm, om, pi_hat)
    elif pm is not None or om is not None or pi_hat is not None:
        raise EstimationError("pass fitted models or a Nuisance bundle, not both")
    else:
        c = ds
    # The bundle's vectors are fits 0 and 1 of a one-cell plan.
    plan = _plan(
        (EstimationPipeline(target, kind),),
        (("propensity",), ("outcome",)),
        ((-1 if c.pi is None else 0, -1 if c.m1 is None else 1),),
    )
    (result,) = _fill(c.ds, plan, True, (c.pi, (c.m1, c.m0)).__getitem__)
    if isinstance(result, WateError):
        raise result
    return result


# --- the fit-then-fill engine -------------------------------------------------


@dataclass(frozen=True)
class EstimationPipeline:
    """Everything needed to go from raw data to one point estimate.

    ``pi_design`` / ``m_design`` of ``None`` mean the corresponding model is
    not fitted (the dispatcher then rejects estimators that need it).
    ``truncate`` is a percentile pair applied to the fitted propensities
    before any weight is formed; the target function is evaluated on the
    truncated values too.
    """

    estimand: TargetFunction
    kind: EstimatorKind
    pi_design: DesignSpec | None = None
    m_design: DesignSpec | None = None
    m_interaction: DesignSpec | None = None
    truncate: tuple[float, float] | None = None


class _BlockPlan(NamedTuple):
    """The targets of one propensity fit's block, and the coefficients
    ``(a, b)`` of its leading linear targets as two (k, 1) columns."""

    targets: tuple[TargetFunction, ...]
    coefficients: tuple[NDArray[np.float64], NDArray[np.float64]]


@dataclass(frozen=True, eq=False)
class CellPlan:
    """Pipelines resolved once, to be filled on any number of datasets.

    ``fits`` lists each distinct working model once: a propensity fit as
    ``("propensity", design, truncation)``, an outcome fit as
    ``("outcome", main design, interaction design)``. ``cells`` gives each
    pipeline its kernel, the kind it reports and its slots: its propensity
    and outcome fits (-1 for a model it does not fit) and its target's row
    in ``blocks[p]``, the targets whose ``h`` propensity fit ``p`` evaluates
    (``p = -1`` for the cells that fit none). A plan is picklable, so
    workers can receive it instead of building it.
    """

    pipelines: tuple[EstimationPipeline, ...]
    fits: tuple[tuple[Hashable, ...], ...]
    cells: tuple[_Cell, ...]
    blocks: dict[int, _BlockPlan]


def plan_cells(pipelines: Sequence[EstimationPipeline]) -> CellPlan:
    """The :class:`CellPlan` of ``pipelines``."""
    fits: dict[tuple[Hashable, ...], int] = {}
    slots = []
    for p in pipelines:
        pi = m = -1
        if p.pi_design is not None:
            pi = fits.setdefault(("propensity", p.pi_design, p.truncate), len(fits))
        if p.m_design is not None:
            m = fits.setdefault(("outcome", p.m_design, p.m_interaction), len(fits))
        slots.append((pi, m))
    return _plan(tuple(pipelines), tuple(fits), slots)


def _plan(
    pipelines: tuple[EstimationPipeline, ...],
    fits: tuple[tuple[Hashable, ...], ...],
    slots: Sequence[tuple[int, int]],
) -> CellPlan:
    """The plan of ``pipelines`` with the fit slots ``(p, m)`` of each. A
    block holds every target of its cells that it can evaluate: with no
    propensity fit, those that do not read ``pi``."""
    targets: dict[int, list[TargetFunction]] = {}
    for pipe, (p, _) in zip(pipelines, slots):
        rows = targets.setdefault(p, [])
        if (p >= 0 or not pipe.estimand.depends_on_propensity) and pipe.estimand not in rows:
            rows.append(pipe.estimand)
    blocks = {}
    for p, rows in targets.items():
        # The doubly robust form reads the linear targets as leading rows.
        rows.sort(key=lambda t: _linear_coefficients(t) is None)
        linear = [_linear_coefficients(t) for t in rows]
        ab = np.array([c for c in linear if c is not None], dtype=np.float64).reshape(-1, 2)
        blocks[p] = _BlockPlan(tuple(rows), (ab[:, :1], ab[:, 1:]))
    cells = []
    for pipe, (p, m) in zip(pipelines, slots):
        reported, kernel = _route(pipe.kind, pipe.estimand)
        rows = blocks[p].targets
        row = rows.index(pipe.estimand) if pipe.estimand in rows else -1
        cells.append(_Cell(kernel, reported, pipe.estimand, p, m, row))
    return CellPlan(pipelines, fits, tuple(cells), blocks)


def _fill_many(
    datasets: Sequence[ObservationalDataset],
    plan: CellPlan | Sequence[EstimationPipeline],
    diagnostics: bool,
) -> list[list[PointEstimate | float | WateError]]:
    """:func:`_fill` of every cell of ``plan`` on each of ``datasets``,
    which have the same number of rows. Each propensity fit of the plan runs
    on all of them as one stack; its truncation and check, the outcome fits
    and the fill run per dataset."""
    if not isinstance(plan, CellPlan):
        plan = plan_cells(plan)
    stacked = [
        _fit_propensities(datasets, design) if stage == "propensity" else None
        for stage, design, _ in plan.fits
    ]
    results = []
    for i, ds in enumerate(datasets):
        propensity = [None if fits is None else fits[i] for fits in stacked]
        results.append(_fill(ds, plan, diagnostics, partial(_vectors, ds, plan, propensity)))
    return results


def _vectors(
    ds: ObservationalDataset,
    plan: CellPlan,
    propensity: list[PropensityModel | WateError | None],
    slot: int,
) -> NDArray[np.float64] | tuple[NDArray[np.float64], NDArray[np.float64]]:
    """The vectors of fit ``slot`` on ``ds``: ``pi`` of its propensity
    model in ``propensity[slot]``, truncated and checked, or ``(m1, m0)``
    of the outcome model fitted here."""
    stage, design, extra = plan.fits[slot]
    if stage == "outcome":
        om = fit_outcome(ds, design, extra)
        return om.m1, om.m0
    pm = propensity[slot]
    if isinstance(pm, WateError):
        raise pm
    pi = pm.pi if extra is None else truncate_propensity(pm.pi, *extra)
    return _checked_pi(pi, ds.n, EstimationError)


def _fill(
    ds: ObservationalDataset,
    plan: CellPlan,
    diagnostics: bool,
    vectors: Callable[[int], object],
) -> list[PointEstimate | float | WateError]:
    """Every cell of ``plan`` on ``ds``, with fit ``slot`` read from
    ``vectors(slot)``: the point estimate, or only its value, or the error
    the cell failed with. The one pass over a dataset."""
    q = _Pass(ds, plan, vectors)
    results: list[PointEstimate | float | WateError] = []
    for c in plan.cells:
        try:
            if c.p >= 0:
                q.fitted(c.p)
            if c.m >= 0:
                q.fitted(c.m)
            value = c.kernel(q, c)
            if diagnostics:
                value = PointEstimate(value, c.reported, c.target, ds.n, _diagnostics(q, c))
            results.append(value)
        except WateError as exc:
            # A raise gives a kept error the traceback of its frames again.
            results.append(exc.with_traceback(None))
    return results


def fill_cells(
    ds: ObservationalDataset, plan: CellPlan | Sequence[EstimationPipeline]
) -> list[PointEstimate | WateError]:
    """Estimate every pipeline of ``plan`` (a :class:`CellPlan`, or
    pipelines to plan here) on ``ds``, fitting each distinct working model
    once and computing each shared term once.

    A pipeline whose model failed to fit gets a :class:`FitFailure`, one
    whose estimate failed gets that error.
    """
    return _fill_many([ds], plan, diagnostics=True)[0]


def cell_values(
    ds: ObservationalDataset, plan: CellPlan | Sequence[EstimationPipeline]
) -> NDArray[np.float64]:
    """Values of :func:`fill_cells`, NaN where a pipeline failed, computed
    by the same kernels without building any :class:`Diagnostics`."""
    return _cell_value_rows([ds], plan)[0]


def _cell_value_rows(
    datasets: Sequence[ObservationalDataset], plan: CellPlan | Sequence[EstimationPipeline]
) -> list[NDArray[np.float64]]:
    """:func:`cell_values` of each of ``datasets``, which have the same
    number of rows, with each propensity fit run on all of them as one
    stack."""
    return [
        np.array([np.nan if isinstance(r, WateError) else r for r in results])
        for results in _fill_many(datasets, plan, diagnostics=False)
    ]
