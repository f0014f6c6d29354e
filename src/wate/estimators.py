"""Point estimators for weighted average treatment effects.

Every estimator is a short formula over the observed ``(A, Y)``, the target
weights ``h`` and three fitted vectors: the propensity ``pi`` and the arm
means ``m1`` and ``m0``. The estimator kind and the target pick the formula:

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

:func:`fill_cells` is the one fit-then-fill engine, in two steps.
:func:`plan_cells` resolves a list of :class:`EstimationPipeline` cells once
into a :class:`CellPlan`. It lists each distinct working model once in
``CellPlan.fits``, keyed as ``("propensity", design, truncate)`` or
``("outcome", main, interaction)``. It picks each cell's kernel and the kind
the cell reports. It gives each propensity fit, and the cells that fit none,
the targets its cells read ``h`` of, the targets linear in the propensity
first. The pass then fills every cell on a :class:`~wate.data._Stack` of b
same-n replicates at once: it first fits every listed model on the whole
stack (one stacked IRLS per propensity design, one stacked least squares
fit per outcome design, see :mod:`wate.models`), keeping ``pi`` of each
propensity fit and ``m1``, ``m0`` and ``m1 - m0`` of each outcome fit, and
then estimates every cell from those (b, n) vector stacks, with no model
object, no prediction and no comparison of designs; the rows of a failed
fit hold placeholders, 0.5 in ``pi`` and 0 in ``m1`` and ``m0``. ``A``
and ``Y`` are (b, n) stacks too. A fitted and truncated ``pi`` is not
checked again: the fit keeps it strictly inside (0, 1). Per propensity fit,
the pass evaluates the targets as one C-contiguous (b, targets, n) block
``H``, each standard or linear target once on the whole stack and a
covariate target's function once per replicate, and computes each term on
the whole block, once:

* the row sums of ``H``, of the weights ``A*(H/pi)`` and ``(1-A)*(H/(1-pi))``
  and of the weighted outcomes;
* the six sub-terms of the augmented contrast and the doubly robust
  residual, which every outcome fit shares;
* per outcome fit, the numerators of the regression, augmented and doubly
  robust estimates, one per row.

Every sum over a block is a sum over its last axis. numpy sums each row of
a C-contiguous block as it sums that row alone, and an elementwise term
gets the same bits in any shape, so a replicate gets the bits a pass over
it alone gives (a test pins this property of numpy). The cells are filled in
the order of their propensity fits, and one block is alive at a time: the
pass drops a block before it builds the next.

Each kernel returns its cell's value on every replicate of the stack and
records, per replicate, the first check the replicate fails, in the order a
pass over that replicate alone makes the checks: a failed fit, an error
evaluating ``h`` (kept without its traceback), then the kernel's own
refusals. An error that holds for every replicate, such as a model the cell
does not fit, is raised. Only the unweighted difference, which takes each
replicate's arm means, loops over the replicates.

Vectors supplied to :func:`fill_cells` (a truncated or external ``pi``, arm
means predicted from a model fitted on other rows) join the plan as fits of
their own, ``(stage, None, vectors)``: the cells that fit no such model read
them, and the pass reads them as it reads a fitted model's vectors.

The bootstrap, the command line report and the Monte Carlo study each build
one plan and ship it to their workers. :func:`fill_cells` is a pass over its
dataset as a stack of one, made of views, that returns point estimates.
Study and bootstrap replicates keep only the values, through
``_cell_value_rows``, a pass over a stack of replicates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from typing import Callable, Hashable, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .data import ObservationalDataset, _Stack
from .design import DesignSpec
from .errors import EstimationError, FitFailure, MissingModelError, WateError
from .models import _check_percentiles, _fit_outcomes, _fit_propensities, _truncated
from .targets import TargetFunction, TargetKind, _checked_pi, _h_values


class EstimatorKind(enum.Enum):
    UNWEIGHTED = "unweighted"
    REGRESSION = "regression"
    IPW_NORMALIZED = "ipw"
    AIPW = "aipw"
    DR_LINEAR_IN_PI = "dr"


@dataclass(frozen=True, eq=False)
class PointEstimate:
    value: float
    estimator: EstimatorKind
    estimand: TargetFunction


# --- the terms of one pass ----------------------------------------------------


class _Pass:
    """One fill over a stack of b replicates: its (b, n) ``A``, ``1 - A``
    and ``Y``, the fits of every working model of ``plan``, made once up
    front, and the one live :class:`_Block`.

    ``fits[slot]`` holds the vectors of fit ``slot`` as (b, n) stacks,
    ``pi`` or ``(m1, m0, m1 - m0)``, and the :class:`FitFailure` of each
    replicate it failed on, by position; the rows of a failed fit hold
    placeholders."""

    def __init__(self, stack: _Stack, plan: "CellPlan"):
        self.stack = stack
        self.plan = plan
        self.A, self.Y = stack.A, stack.Y
        self.not_A = 1.0 - self.A
        self.fits = [_fit(stack, fit) for fit in plan.fits]
        self._block: _Block | None = None

    def block(self, p: int) -> "_Block":
        """The block of propensity fit ``p``. A new ``p`` drops the previous
        block before the next one is built, so one block is alive at a
        time."""
        if self._block is None or self._block.p != p:
            self._block = None
            self._block = _Block(self, p)
        return self._block


class _Block:
    """The targets the plan lists for propensity fit ``p`` (-1: the cells
    that fit none), as a C-contiguous (b, targets, n) block ``H``: row
    ``H[i, t]`` is ``h`` of target t on replicate i from
    :func:`~wate.targets._h_values`, which evaluates each target once on the
    stack (a covariate target's function once per replicate) and checks its
    length, finiteness and sign, or zeros when that failed or the fit failed
    on the replicate. The error of a replicate on which ``h`` failed is given
    to every cell that reads its row. The first rows are the targets linear
    in the propensity. Every term is computed on the whole block and every
    sum is over the last axis. The terms of outcome fit ``m`` read its
    vectors from the pass's list of fits, which the block keeps, not the
    pass."""

    def __init__(self, q: _Pass, p: int):
        self.p = p
        self.A, self.not_A, self.Y = q.A, q.not_A, q.Y
        self.fits = q.fits
        self.pi, failed = (None, {}) if p < 0 else q.fits[p]
        targets, self.coefficients = q.plan.blocks[p]
        b, n = q.A.shape
        self.H = np.empty((b, len(targets), n))
        self.errors: dict[int, dict[int, WateError]] = {}
        for t, target in enumerate(targets):
            self.H[:, t], errors = _h_values(target, q.stack.X, self.pi, failed)
            if errors:
                self.errors[t] = errors
        self.totals = self.H.sum(axis=2)
        self._per_fit: dict[tuple[str, int], NDArray[np.float64]] = {}

    def h_total(self, row: int, err: dict[int, WateError]) -> NDArray[np.float64]:
        """``sum(h)`` of the target in ``row`` per replicate; a replicate on
        which ``h`` failed gets that error."""
        for i, error in self.errors.get(row, {}).items():
            err.setdefault(i, error)
        return self.totals[:, row]

    def h_checked(self, row: int, err: dict[int, WateError]) -> NDArray[np.float64]:
        """``sum(h)``, refused where ``h`` puts no mass on the sample."""
        total = self.h_total(row, err)
        _refuse(err, total <= 0.0, "target function puts zero mass on the sample")
        return total

    @cached_property
    def not_pi(self) -> NDArray[np.float64]:
        return 1.0 - self.pi

    @cached_property
    def weights(self) -> tuple[NDArray[np.float64], ...]:
        """Row sums of ``tw = A*(H/pi)`` and ``cw = (1-A)*(H/(1-pi))``, then
        of ``tw*Y`` and ``cw*Y``; the weights themselves are not kept. ``A``
        is exactly 0 or 1, so ``A*(h/pi)`` equals ``(A*h)/pi`` to the last
        bit."""
        tw = np.divide(self.H, self.pi[:, None])
        cw = np.divide(self.H, self.not_pi[:, None])
        np.multiply(tw, self.A[:, None], out=tw)
        np.multiply(cw, self.not_A[:, None], out=cw)
        st, sc = tw.sum(axis=2), cw.sum(axis=2)
        Y = self.Y[:, None]
        ty, cy = np.multiply(tw, Y, out=tw).sum(axis=2), np.multiply(cw, Y, out=cw).sum(axis=2)
        return st, sc, ty, cy

    @cached_property
    def contrast_terms(self) -> tuple[NDArray[np.float64], ...]:
        """``A*Y/pi``, ``(A-pi)/pi``, ``(1-A)*Y/(1-pi)`` and ``(A-pi)/(1-pi)``,
        grouped as in the augmented contrast."""
        A, Y, pi, not_pi = self.A, self.Y, self.pi, self.not_pi
        A_pi = A - pi
        return A * Y / pi, A_pi / pi, self.not_A * Y / not_pi, A_pi / not_pi

    @cached_property
    def residual_terms(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """``A/pi`` and ``(1-A)/(1-pi)``."""
        return self.A / self.pi, self.not_A / self.not_pi

    @cached_property
    def observed(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """``a + b*A`` of each leading target ``a + b*pi``, the linear
        target with the observed treatment in place of ``pi``, and the row
        sums."""
        a, b = self.coefficients
        h_obs = a + b * self.A[:, None]
        return h_obs, h_obs.sum(axis=2)

    def _once(self, name: str, m: int, compute: Callable[[], NDArray[np.float64]]):
        value = self._per_fit.get((name, m))
        if value is None:
            value = self._per_fit[name, m] = compute()
        return value

    def regression(self, m: int) -> NDArray[np.float64]:
        """Row sums of ``H*(m1 - m0)``."""
        return self._once(
            "regression", m, lambda: (self.H * self.fits[m][0][2][:, None]).sum(axis=2)
        )

    def augmented(self, m: int) -> NDArray[np.float64]:
        """Row sums of ``H`` times the augmented contrast ``arm1 - arm0``."""

        def compute():
            m1, m0, _ = self.fits[m][0]
            ay_pi, a_pi, ay_not_pi, a_not_pi = self.contrast_terms
            arm1 = ay_pi - a_pi * m1
            arm0 = ay_not_pi + a_not_pi * m0
            return (self.H * (arm1 - arm0)[:, None]).sum(axis=2)

        return self._once("augmented", m, compute)

    def doubly_robust(self, m: int) -> NDArray[np.float64]:
        """Row sums of ``(a + b*A)*(m1 - m0) + h*(A/pi*(Y - m1) -
        (1-A)/(1-pi)*(Y - m0))`` over the linear targets."""

        def compute():
            m1, m0, m_diff = self.fits[m][0]
            Y = self.Y
            treated, control = self.residual_terms
            residual = treated * (Y - m1) - control * (Y - m0)
            h_obs, _ = self.observed
            h = self.H[:, :h_obs.shape[1]]
            return (h_obs * m_diff[:, None] + h * residual[:, None]).sum(axis=2)

        return self._once("doubly_robust", m, compute)


def _refuse(err: dict[int, WateError], bad: NDArray[np.bool_], message: str) -> None:
    """Give each dataset where ``bad`` holds an :class:`EstimationError`
    with ``message``, unless it failed an earlier check."""
    if bad.any():
        error = EstimationError(message)
        for i in np.flatnonzero(bad).tolist():
            err.setdefault(i, error)


def _finite(
    values: NDArray[np.float64], what: str, err: dict[int, WateError]
) -> NDArray[np.float64]:
    _refuse(err, ~np.isfinite(values), f"{what} evaluated to a non-finite value")
    return values


def _needs_propensity(p: int, reader: str) -> None:
    """Raise :class:`MissingModelError` naming ``reader`` for a cell that
    fits no propensity (``p = -1``)."""
    if p < 0:
        raise MissingModelError(f"{reader} needs a propensity model or a supplied pi")


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

    kernel: Callable[[_Pass, "_Cell", dict[int, WateError]], NDArray[np.float64]]
    reported: EstimatorKind
    target: TargetFunction
    p: int
    m: int
    row: int


def _unweighted(q: _Pass, c: _Cell, err: dict[int, WateError]) -> NDArray[np.float64]:
    """``mean(Y[A==1]) - mean(Y[A==0])``: the average effect when h = 1 and
    no model is fitted, each mean summed and divided as ``np.mean`` does."""
    if c.target.kind is not TargetKind.ATE:
        raise EstimationError(f"the unweighted difference has no {c.target.label!r} form")
    values = np.zeros(q.A.shape[0])
    for i, (A, Y) in enumerate(zip(q.A, q.Y)):
        treated, control = Y[A == 1.0], Y[A == 0.0]
        if treated.size == 0 or control.size == 0:
            err.setdefault(i, EstimationError("an arm is empty"))
        else:
            sum1, sum0 = np.add.reduce(treated), np.add.reduce(control)
            values[i] = sum1 / treated.size - sum0 / control.size
    return _finite(values, "unweighted estimate", err)


def _regression_on_arm(q: _Pass, c: _Cell, err: dict[int, WateError]) -> NDArray[np.float64]:
    _needs_outcome(c.m, "regression estimator")
    m1, m0, _ = q.fits[c.m][0]
    treated = c.target.kind is TargetKind.ATT
    arm = q.A if treated else q.not_A
    size = arm.sum(axis=1)
    who = "treated" if treated else "control"
    _refuse(err, size < 1.0, f"no {who} observations")
    contrast = q.Y - m0 if treated else m1 - q.Y
    return _finite((arm * contrast).sum(axis=1) / size, f"{who} regression estimate", err)


def _dr_linear(q: _Pass, c: _Cell, err: dict[int, WateError]) -> NDArray[np.float64]:
    """sum [ (a + b*A)*(m1 - m0) + (a + b*pi) * (A/pi*(Y - m1) - (1-A)/(1-pi)*(Y - m0)) ]
    / sum (a + b*A). The denominator replaces pi with the observed treatment
    indicator, which is what makes the estimator consistent when only one
    model is right."""
    _needs_propensity(c.p, "doubly robust estimator")
    _needs_outcome(c.m, "doubly robust estimator")
    block = q.block(c.p)
    # The sign of h is checked first, by the same code and with the same
    # message as for every other estimator of this target.
    block.h_total(c.row, err)
    denom = block.observed[1][:, c.row]
    _refuse(err, denom <= 0.0, "denominator sum(a + b*A) is not positive")
    return _finite(block.doubly_robust(c.m)[:, c.row] / denom, "doubly robust estimate", err)


def _no_closed_form(q: _Pass, c: _Cell, err: dict[int, WateError]) -> NDArray[np.float64]:
    raise EstimationError(
        f"closed-form doubly robust estimator only supports targets linear in "
        f"the propensity, not {c.target.label!r}"
    )


def _block_of(q: _Pass, c: _Cell, err: dict[int, WateError]) -> _Block:
    """The block holding the cell's ``h``, after the checks every kernel of
    a generic ``h`` makes first: a target that reads ``pi`` needs one, and
    ``h`` must have evaluated."""
    if c.target.depends_on_propensity:
        _needs_propensity(c.p, f"target {c.target.label!r}")
    block = q.block(c.p)
    block.h_total(c.row, err)
    return block


def _regression(q: _Pass, c: _Cell, err: dict[int, WateError]) -> NDArray[np.float64]:
    block = _block_of(q, c, err)
    _needs_outcome(c.m, "regression estimator")
    total = block.h_checked(c.row, err)
    return _finite(block.regression(c.m)[:, c.row] / total, "regression estimate", err)


def _ipw(q: _Pass, c: _Cell, err: dict[int, WateError]) -> NDArray[np.float64]:
    block = _block_of(q, c, err)
    _needs_propensity(c.p, "weighting estimator")
    st, sc, ty, cy = block.weights
    st, sc = st[:, c.row], sc[:, c.row]
    _refuse(err, (st <= 0.0) | (sc <= 0.0), "zero weight mass in one arm")
    return _finite(ty[:, c.row] / st - cy[:, c.row] / sc, "ipw estimate", err)


def _aipw(q: _Pass, c: _Cell, err: dict[int, WateError]) -> NDArray[np.float64]:
    block = _block_of(q, c, err)
    _needs_propensity(c.p, "augmented estimator")
    _needs_outcome(c.m, "augmented estimator")
    total = block.h_checked(c.row, err)
    return _finite(block.augmented(c.m)[:, c.row] / total, "augmented estimate", err)


_GENERIC = {
    EstimatorKind.REGRESSION: _regression,
    EstimatorKind.IPW_NORMALIZED: _ipw,
    EstimatorKind.AIPW: _aipw,
}


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
) -> tuple[EstimatorKind, Callable[[_Pass, _Cell, dict[int, WateError]], NDArray[np.float64]]]:
    """The kind a ``(kind, target)`` cell reports and the kernel for that
    pair. The augmented kind on a target linear in the propensity runs, and
    reports, the doubly robust closed form."""
    if kind is EstimatorKind.UNWEIGHTED:
        return kind, _unweighted
    if kind is EstimatorKind.REGRESSION and target.kind in (TargetKind.ATT, TargetKind.ATC):
        # A regression over one arm's rows.
        return kind, _regression_on_arm
    if kind in (EstimatorKind.AIPW, EstimatorKind.DR_LINEAR_IN_PI):
        if _linear_coefficients(target) is not None:
            return EstimatorKind.DR_LINEAR_IN_PI, _dr_linear
        if kind is EstimatorKind.DR_LINEAR_IN_PI:
            return kind, _no_closed_form
    if kind not in _GENERIC:
        raise EstimationError(f"unknown estimator kind {kind!r}")
    return kind, _GENERIC[kind]


# --- the fit-then-fill engine -------------------------------------------------


@dataclass(frozen=True)
class EstimationPipeline:
    """Everything needed to go from raw data to one point estimate.

    ``pi_design`` / ``m_design`` of ``None`` mean the corresponding model is
    not fitted: the cell reads the vectors supplied to :func:`fill_cells`,
    and without them the dispatcher rejects estimators that need it.
    ``truncate`` is a percentile pair applied to the fitted propensities
    before any weight is formed; the target function is evaluated on the
    truncated values too. A value that is not a pair of real numbers, or a
    pair that :func:`truncate_propensity` would refuse, is refused here with
    a ``ValueError``, the latter with that function's message.
    """

    estimand: TargetFunction
    kind: EstimatorKind
    pi_design: DesignSpec | None = None
    m_design: DesignSpec | None = None
    m_interaction: DesignSpec | None = None
    truncate: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        t = self.truncate
        if t is None:
            return
        if not isinstance(t, tuple) or len(t) != 2 or not all(isinstance(v, Real) for v in t):
            raise ValueError(f"truncate must be a (lower, upper) pair of percentiles, got {t!r}")
        _check_percentiles(*t)


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
    ``("outcome", main design, interaction design)``, and vectors supplied
    to :func:`fill_cells` as ``(stage, None, vectors)``. ``cells`` gives each
    pipeline its kernel, the kind it reports and its slots: its propensity
    and outcome fits (-1 for a model it does not fit) and its target's row
    in ``blocks[p]``, the targets whose ``h`` propensity fit ``p`` evaluates
    (``p = -1`` for the cells that fit none). A plan is picklable, so
    workers can receive it instead of building it.
    """

    pipelines: tuple[EstimationPipeline, ...]
    fits: tuple[tuple[object, ...], ...]
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
    fits: tuple[tuple[object, ...], ...],
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


def _fit(stack: _Stack, fit: tuple[object, ...]) -> tuple[object, dict[int, FitFailure]]:
    """The vectors of ``fit`` on a stack of replicates, as (b, n) stacks,
    and the :class:`FitFailure` of each replicate it failed on, by position:
    the vectors supplied to a stack of one, ``pi`` of the stacked propensity
    fit, truncated on the whole stack (0.5 where it failed), or ``(m1, m0,
    m1 - m0)`` of the stacked outcome fit (0 where it failed). A fitted
    ``pi`` needs no check: the IRLS fails a fit that reaches its clamp, so
    each fit lies strictly inside (``PROB_CLAMP``, 1 - ``PROB_CLAMP``), and a
    truncation only clips it at its own percentiles."""
    stage, design, extra = fit
    if design is None:
        if stage == "outcome":
            m1, m0 = (v.reshape(1, -1) for v in extra)
            return (m1, m0, m1 - m0), {}
        return extra.reshape(1, -1), {}
    if stage == "outcome":
        fits = _fit_outcomes(stack, design, design if extra is None else extra)
        return (fits.m1, fits.m0, fits.m1 - fits.m0), _failures(stage, fits.errors)
    fits = _fit_propensities(stack, design)
    pi, errors = fits.pi, fits.errors
    pi[[i for i, error in enumerate(errors) if error is not None]] = 0.5
    if extra is not None:
        # A failed row, all 0.5, keeps its bits.
        pi = _truncated(pi, *extra)
    return pi, _failures(stage, errors)


def _failures(stage: str, errors: list[WateError | None]) -> dict[int, FitFailure]:
    return {i: FitFailure(stage, error) for i, error in enumerate(errors) if error is not None}


def _fill(
    stack: _Stack, plan: CellPlan
) -> tuple[NDArray[np.float64], list[dict[int, WateError]]]:
    """Every cell of ``plan`` on each replicate of ``stack``: the
    (replicates, cells) matrix of values, where a failed value is undefined,
    and per cell the error of each replicate it failed on, by position.

    The one pass, over the whole stack: each fit of the plan runs once on
    it, up front, and each kernel once, and each replicate gets the checks
    in the order a pass over it alone makes them, so its first failure and
    its bits; an error a kernel raises applies to every replicate. The
    cells are filled in the order of their propensity fits, so each block
    is built once and dropped when the next one is built."""
    b = stack.A.shape[0]
    cells = plan.cells
    values = np.empty((b, len(cells)))
    errors: list[dict[int, WateError]] = [{} for _ in cells]
    # The divisions of a refused replicate may divide by zero, and the sums
    # of extreme but finite data may overflow; _finite refuses a value that
    # is not finite.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = _Pass(stack, plan)
        for j in sorted(range(len(cells)), key=lambda j: cells[j].p):
            c, err = cells[j], errors[j]
            for slot in (c.p, c.m):
                if slot >= 0:
                    for i, failure in q.fits[slot][1].items():
                        err.setdefault(i, failure)
            try:
                values[:, j] = c.kernel(q, c, err)
            except WateError as exc:
                # A raise gives a kept error the traceback of its frames.
                exc = exc.with_traceback(None)
                for i in range(b):
                    err.setdefault(i, exc)
    return values, errors


def fill_cells(
    ds: ObservationalDataset,
    plan: CellPlan | Sequence[EstimationPipeline],
    pi: NDArray[np.float64] | None = None,
    m1: NDArray[np.float64] | None = None,
    m0: NDArray[np.float64] | None = None,
) -> list[PointEstimate | WateError]:
    """Estimate every pipeline of ``plan`` (a :class:`CellPlan`, or
    pipelines to plan here) on ``ds``, fitting each distinct working model
    once and computing each shared term once.

    A pipeline with no ``pi_design`` reads the supplied propensity ``pi``,
    e.g. a truncated vector or one predicted from a model fitted on other
    rows; one with no ``m_design`` reads the supplied arm means ``m1`` and
    ``m0``. They are used as given, once ``pi`` is checked to lie inside
    (0, 1) and each vector to have a value per row.

    A pipeline whose model failed to fit gets a :class:`FitFailure`, one
    whose estimate failed gets that error.
    """
    if pi is not None or m1 is not None or m0 is not None:
        plan = _supplied(ds, plan, pi, m1, m0)
    elif not isinstance(plan, CellPlan):
        plan = plan_cells(plan)
    values, errors = _fill(_Stack.of(ds), plan)
    return [
        err[0] if err else PointEstimate(float(values[0, j]), c.reported, c.target)
        for j, (c, err) in enumerate(zip(plan.cells, errors))
    ]


def _supplied(
    ds: ObservationalDataset,
    plan: CellPlan | Sequence[EstimationPipeline],
    pi: NDArray[np.float64] | None,
    m1: NDArray[np.float64] | None,
    m0: NDArray[np.float64] | None,
) -> CellPlan:
    """``plan`` with the supplied vectors as fits of their own, read by
    every cell that fits no such model."""
    if (m1 is None) != (m0 is None):
        raise EstimationError("the arm means m1 and m0 must be supplied together")
    if not isinstance(plan, CellPlan):
        plan = plan_cells(plan)
    fits, p, m = plan.fits, -1, -1
    if pi is not None:
        p = len(fits)
        fits += (("propensity", None, _checked_pi(pi, ds.n, EstimationError)),)
    if m1 is not None:
        m = len(fits)
        fits += (("outcome", None, (_checked_mean(m1, ds.n), _checked_mean(m0, ds.n))),)
    slots = [(p if c.p < 0 else c.p, m if c.m < 0 else c.m) for c in plan.cells]
    return _plan(plan.pipelines, fits, slots)


def _checked_mean(m: NDArray[np.float64], n: int) -> NDArray[np.float64]:
    m = np.asarray(m, dtype=np.float64).ravel()
    if m.shape[0] != n:
        raise EstimationError(f"arm mean vector has length {m.shape[0]}, expected {n}")
    return m


def _cell_value_rows(stack: _Stack, plan: CellPlan) -> list[NDArray[np.float64]]:
    """The values of :func:`fill_cells` on each replicate of ``stack``, NaN
    where a pipeline failed, from one pass over the whole stack."""
    values, errors = _fill(stack, plan)
    for j, err in enumerate(errors):
        if err:
            values[list(err), j] = np.nan
    return list(values)
