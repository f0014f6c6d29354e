"""Point estimators for weighted average treatment effects.

Every estimator is a short formula over the observed ``(A, Y)``, the target
weights ``h`` and three fitted vectors: the propensity ``pi`` and the arm
means ``m1`` and ``m0``. A :class:`Nuisance` bundle holds those vectors for
one dataset, with the store of the terms computed from them.

:func:`estimate` is the one entry point; it picks the formula from the
estimator kind and the target:

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
One routing step picks the kernel and the kind the cell reports. The weight
mass and effective sample sizes of a :class:`Diagnostics` are read from the
shared terms only when a :class:`PointEstimate` is built.

:func:`fill_cells` is the one fit-then-fill engine, in two steps.
:func:`plan_cells` resolves a list of :class:`EstimationPipeline` cells once
into a :class:`CellPlan`: it lists each distinct working model once in
``CellPlan.fits``, keyed as ``("propensity", design, truncate)`` or
``("outcome", main, interaction)``, and maps every pipeline to integer slots
(its propensity fit, its outcome fit, its target). The pass over one
dataset then fits each listed model on first use, estimates every cell from
the vectors the fits carry, with no prediction and no comparison of
designs, and computes each term that several cells read once, keyed by
slots:

* per target: the arm indicator of a treated or control regression and its
  size, and ``a + b*A`` of a linear target and its sum;
* per (propensity fit, target): ``h``, its sum, the weights ``A*h/pi`` and
  ``(1-A)*h/(1-pi)`` and their effective sample sizes;
* per (propensity fit, outcome fit): the augmented contrast and the doubly
  robust residual;
* per outcome fit: ``m1 - m0``.

An error raised while computing a term is kept and raised again for every
cell that reads the term. Each cell is a :class:`Nuisance` bundle with its
slots and the pass's store, so the terms live for one pass over one dataset;
a bundle built by hand keeps a store of its own. The bootstrap, the command
line report and the Monte Carlo study each build one plan and ship it to
their workers. :func:`fill_cells` returns point estimates with their
diagnostics; :func:`cell_values`, which every study and bootstrap replicate
calls, makes the same pass and keeps only the values, so a replicate builds
no diagnostics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, Sequence, TypeVar

import numpy as np
from numpy.typing import NDArray

from .data import ObservationalDataset
from .design import DesignSpec
from .errors import EstimationError, FitFailure, MissingModelError, WateError
from .models import (
    OutcomeModel,
    PropensityModel,
    fit_outcome,
    fit_propensity,
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

T = TypeVar("T")


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


_MISSING = object()


def _memo(store: dict[Hashable, object], key: Hashable, compute: Callable[[], T]) -> T:
    """``store[key]``, computed on first use. A :class:`WateError` raised by
    ``compute`` is stored instead and raised on every use."""
    value = store.get(key, _MISSING)
    if value is _MISSING:
        try:
            value = compute()
        except WateError as exc:
            value = exc
        store[key] = value
    if isinstance(value, WateError):
        raise value
    return value  # type: ignore[return-value]


def _ess(weights: NDArray[np.float64], total: float) -> float:
    """``total**2 / sum(weights**2)`` for ``total = sum(weights)``; 0 when the
    weights have no positive mass."""
    if total <= 0.0:
        return 0.0
    return total * total / float((weights * weights).sum())


@dataclass(frozen=True, eq=False)
class Nuisance:
    """Fitted vectors on the rows of ``ds``: the propensity ``pi`` (after any
    truncation) and the arm means ``m1``/``m0`` of one outcome model. A vector
    is ``None`` when its model was not fitted. The vectors are used as given;
    :meth:`from_models` builds a bundle from fitted models and checks an
    explicit ``pi_hat``.

    ``terms`` holds each term computed from the vectors under the slots it
    depends on (``p`` propensity fit, ``m`` outcome fit, ``t`` target), so
    the cells of one :func:`fill_cells` pass share one store. A bundle built
    by hand has a store of its own and ``t = -1``: :func:`estimate` gives
    each distinct target a slot."""

    ds: ObservationalDataset
    pi: NDArray[np.float64] | None = None
    m1: NDArray[np.float64] | None = None
    m0: NDArray[np.float64] | None = None
    terms: dict[Hashable, object] = field(default_factory=dict, repr=False)
    p: int = 0
    m: int = 0
    t: int = -1

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

    def propensity(self, reader: str) -> NDArray[np.float64]:
        """``pi``; raises :class:`MissingModelError` naming ``reader`` if no
        propensity was fitted."""
        if self.pi is None:
            raise MissingModelError(f"{reader} needs a propensity model or pi_hat")
        return self.pi

    def arm_means(self, reader: str) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """``(m1, m0)``; raises :class:`MissingModelError` naming ``reader`` if
        no outcome model was fitted."""
        if self.m1 is None:
            raise MissingModelError(f"{reader} needs an outcome model")
        return self.m1, self.m0

    # Per target.

    def arm(self, target: TargetFunction) -> tuple[NDArray[np.float64], float]:
        """The indicator of the arm a treated or control target averages
        over, ``A`` or ``1 - A``, and the arm's size."""

        def compute():
            arm = self.ds.A if target.kind is TargetKind.ATT else 1.0 - self.ds.A
            return arm, float(arm.sum())

        return _memo(self.terms, ("arm", self.t), compute)

    def h_observed(self, a: float, b: float) -> tuple[NDArray[np.float64], float]:
        """``a + b*A``, the linear target ``a + b*pi`` of the coefficients
        with the observed treatment in place of ``pi``, and its sum."""

        def compute():
            h_obs = a + b * self.ds.A
            return h_obs, float(h_obs.sum())

        return _memo(self.terms, ("h_observed", self.t), compute)

    # Per (propensity fit, target).

    def h(self, target: TargetFunction) -> NDArray[np.float64]:
        """``h`` from :func:`~wate.targets._h_values`, which checks its length,
        finiteness and sign."""
        return _memo(self.terms, ("h", self.p, self.t),
                     lambda: _h_values(target, self.ds.X, self.pi))

    def h_total(self, target: TargetFunction) -> float:
        return _memo(self.terms, ("h_total", self.p, self.t),
                     lambda: float(self.h(target).sum()))

    def h_checked(self, target: TargetFunction) -> float:
        """``sum(h)``, refused when ``h`` puts no mass on the sample."""
        total = self.h_total(target)
        if total <= 0.0:
            raise EstimationError("target function puts zero mass on the sample")
        return total

    def weights(
        self, target: TargetFunction
    ) -> tuple[NDArray[np.float64], NDArray[np.float64], float, float]:
        """``tw = A*h/pi``, ``cw = (1-A)*h/(1-pi)`` and their sums. ``A`` is
        exactly 0 or 1, so ``A*(h/pi)`` equals ``(A*h)/pi`` to the last bit."""

        def compute():
            A, h, pi = self.ds.A, self.h(target), self.pi
            tw = A * (h / pi)
            cw = (1.0 - A) * (h / (1.0 - pi))
            return tw, cw, float(tw.sum()), float(cw.sum())

        return _memo(self.terms, ("weights", self.p, self.t), compute)

    def weight_ess(self, target: TargetFunction) -> tuple[float, float]:
        def compute():
            tw, cw, st, sc = self.weights(target)
            return _ess(tw, st), _ess(cw, sc)

        return _memo(self.terms, ("weight_ess", self.p, self.t), compute)

    def arm_ess(self, target: TargetFunction) -> tuple[float, float]:
        """Effective sample sizes of ``h`` itself on each arm."""

        def compute():
            A, h = self.ds.A, self.h(target)
            h1, h0 = h[A == 1.0], h[A == 0.0]
            return _ess(h1, float(h1.sum())), _ess(h0, float(h0.sum()))

        return _memo(self.terms, ("arm_ess", self.p, self.t), compute)

    # Per (propensity fit, outcome fit) and per outcome fit.

    def contrast(self) -> NDArray[np.float64]:
        """The augmented contrast per row: ``arm1 - arm0``."""

        def compute():
            A, Y, pi, m1, m0 = self.ds.A, self.ds.Y, self.pi, self.m1, self.m0
            arm1 = A * Y / pi - (A - pi) / pi * m1
            arm0 = (1.0 - A) * Y / (1.0 - pi) + (A - pi) / (1.0 - pi) * m0
            return arm1 - arm0

        return _memo(self.terms, ("contrast", self.p, self.m), compute)

    def residual(self) -> NDArray[np.float64]:
        """``A/pi*(Y - m1) - (1-A)/(1-pi)*(Y - m0)``."""

        def compute():
            A, Y, pi, m1, m0 = self.ds.A, self.ds.Y, self.pi, self.m1, self.m0
            return A / pi * (Y - m1) - (1.0 - A) / (1.0 - pi) * (Y - m0)

        return _memo(self.terms, ("residual", self.p, self.m), compute)

    def m_diff(self) -> NDArray[np.float64]:
        return _memo(self.terms, ("m_diff", self.m), lambda: self.m1 - self.m0)


def _finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise EstimationError(f"{what} evaluated to a non-finite value")
    return value


# --- kernels over (A, Y, h, pi, m1, m0) ---------------------------------------


def _unweighted(c: Nuisance, estimand: TargetFunction) -> float:
    """``mean(Y[A==1]) - mean(Y[A==0])``: the average effect when h = 1 and
    no model is fitted."""
    if estimand.kind is not TargetKind.ATE:
        raise EstimationError(f"the unweighted difference has no {estimand.label!r} form")
    A, Y = c.ds.A, c.ds.Y
    treated, control = Y[A == 1.0], Y[A == 0.0]
    if treated.size == 0 or control.size == 0:
        raise EstimationError("an arm is empty")
    return _finite(np.mean(treated) - np.mean(control), "unweighted estimate")


def _regression(c: Nuisance, estimand: TargetFunction) -> float:
    c.arm_means("regression estimator")
    total = c.h_checked(estimand)
    return _finite((c.h(estimand) * c.m_diff()).sum() / total, "regression estimate")


def _regression_on_arm(c: Nuisance, target: TargetFunction) -> float:
    m1, m0 = c.arm_means("regression estimator")
    arm, size = c.arm(target)
    treated = target.kind is TargetKind.ATT
    who = "treated" if treated else "control"
    if size < 1.0:
        raise EstimationError(f"no {who} observations")
    contrast = c.ds.Y - m0 if treated else m1 - c.ds.Y
    return _finite((arm * contrast).sum() / size, f"{who} regression estimate")


def _ipw(c: Nuisance, estimand: TargetFunction) -> float:
    c.propensity("weighting estimator")
    tw, cw, st, sc = c.weights(estimand)
    if st <= 0.0 or sc <= 0.0:
        raise EstimationError("zero weight mass in one arm")
    Y = c.ds.Y
    return _finite((tw * Y).sum() / st - (cw * Y).sum() / sc, "ipw estimate")


def _aipw(c: Nuisance, estimand: TargetFunction) -> float:
    c.propensity("augmented estimator")
    c.arm_means("augmented estimator")
    total = c.h_checked(estimand)
    return _finite((c.h(estimand) * c.contrast()).sum() / total, "augmented estimate")


def _dr_linear(c: Nuisance, a: float, b: float, estimand: TargetFunction) -> float:
    """sum [ (a + b*A)*(m1 - m0) + (a + b*pi) * (A/pi*(Y - m1) - (1-A)/(1-pi)*(Y - m0)) ]
    / sum (a + b*A). The denominator replaces pi with the observed treatment
    indicator, which is what makes the estimator consistent when only one
    model is right."""
    c.propensity("doubly robust estimator")
    c.arm_means("doubly robust estimator")
    # The sign of h is checked first, by the same code and with the same
    # message as for every other estimator of this target.
    h = c.h(estimand)
    h_obs, denom = c.h_observed(a, b)
    if denom <= 0.0:
        raise EstimationError("denominator sum(a + b*A) is not positive")
    return _finite(
        (h_obs * c.m_diff() + h * c.residual()).sum() / denom, "doubly robust estimate"
    )


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
    c: Nuisance, kind: EstimatorKind, target: TargetFunction
) -> tuple[EstimatorKind, float]:
    """The kind a ``(kind, target)`` cell reports, and its value from the
    kernel for that pair. The augmented kind on a target linear in the
    propensity runs, and reports, the doubly robust closed form. Before any
    other kernel, a target that reads ``pi`` needs one and ``h`` is checked."""
    if kind is EstimatorKind.UNWEIGHTED:
        return kind, _unweighted(c, target)
    if _on_arm(kind, target):
        return kind, _regression_on_arm(c, target)
    ab = _linear_coefficients(target)
    if kind in (EstimatorKind.AIPW, EstimatorKind.DR_LINEAR_IN_PI) and ab is not None:
        return EstimatorKind.DR_LINEAR_IN_PI, _dr_linear(c, ab[0], ab[1], target)
    if kind is EstimatorKind.DR_LINEAR_IN_PI:
        raise EstimationError(
            f"closed-form doubly robust estimator only supports targets linear in "
            f"the propensity, not {target.label!r}"
        )
    if target.depends_on_propensity:
        c.propensity(f"target {target.label!r}")
    c.h(target)
    if kind is EstimatorKind.REGRESSION:
        return kind, _regression(c, target)
    if kind is EstimatorKind.AIPW:
        return kind, _aipw(c, target)
    if kind is EstimatorKind.IPW_NORMALIZED:
        return kind, _ipw(c, target)
    raise EstimationError(f"unknown estimator kind {kind!r}")


def _diagnostics(c: Nuisance, kind: EstimatorKind, target: TargetFunction) -> Diagnostics:
    """The weight mass and effective sample sizes behind a cell that reported
    ``kind``, read from the terms its kernel computed: the arm's size for a
    regression over one arm, the ESS of ``h`` per arm for the kinds that
    weight no row by ``pi``, the ESS of the arm weights for the rest."""
    if _on_arm(kind, target):
        _, size = c.arm(target)
        if target.kind is TargetKind.ATT:
            return Diagnostics(size, size, 0.0)
        return Diagnostics(size, 0.0, size)
    if kind in (EstimatorKind.UNWEIGHTED, EstimatorKind.REGRESSION):
        return Diagnostics(c.h_total(target), *c.arm_ess(target))
    return Diagnostics(c.h_total(target), *c.weight_ess(target))


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
    which is used as is: its term store keeps the terms for later calls.
    ``pi_hat`` overrides model predictions when given (used to inject
    percentile-truncated propensities). The augmented estimator for the
    treated, control and a + b*pi targets is the doubly robust closed form,
    labelled :attr:`EstimatorKind.DR_LINEAR_IN_PI`; the generic augmented
    form for such an h is a covariate target, e.g.
    ``covariate_target(functools.partial(predict_propensity, pm), "pi")``.
    """
    if not isinstance(ds, Nuisance):
        c = Nuisance.from_models(ds, pm, om, pi_hat)
    elif pm is not None or om is not None or pi_hat is not None:
        raise EstimationError("pass fitted models or a Nuisance bundle, not both")
    else:
        c = ds
    if c.t < 0:
        # Not planned: equal targets share a slot, as in plan_cells.
        targets = c.terms.setdefault("targets", [])
        if target not in targets:
            targets.append(target)
        c = replace(c, t=targets.index(target))
    reported, value = _route(c, kind, target)
    return PointEstimate(value, reported, target, c.ds.n, _diagnostics(c, reported, target))


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


@dataclass(frozen=True, eq=False)
class CellPlan:
    """Pipelines resolved once, to be filled on any number of datasets.

    ``fits`` lists each distinct working model once: a propensity fit as
    ``("propensity", design, truncation)``, an outcome fit as
    ``("outcome", main design, interaction design)``. ``slots``
    gives each pipeline its ``(propensity fit, outcome fit, target)``
    indices, -1 for a model it does not fit; equal targets share an index.
    A plan is picklable, so workers can receive it instead of building it.
    """

    pipelines: tuple[EstimationPipeline, ...]
    fits: tuple[tuple[Hashable, ...], ...]
    slots: tuple[tuple[int, int, int], ...]


def plan_cells(pipelines: Sequence[EstimationPipeline]) -> CellPlan:
    """The :class:`CellPlan` of ``pipelines``."""
    fits: dict[tuple[Hashable, ...], int] = {}
    targets: list[TargetFunction] = []
    slots = []
    for p in pipelines:
        pi = m = -1
        if p.pi_design is not None:
            pi = fits.setdefault(("propensity", p.pi_design, p.truncate), len(fits))
        if p.m_design is not None:
            m = fits.setdefault(("outcome", p.m_design, p.m_interaction), len(fits))
        if p.estimand not in targets:
            targets.append(p.estimand)
        slots.append((pi, m, targets.index(p.estimand)))
    return CellPlan(tuple(pipelines), tuple(fits), tuple(slots))


def _fit(
    ds: ObservationalDataset, key: tuple[Hashable, ...]
) -> NDArray[np.float64] | tuple[NDArray[np.float64], NDArray[np.float64]]:
    """The vectors of the fit ``key`` names: ``pi`` (truncated and checked)
    or ``(m1, m0)``."""
    stage, design, extra = key
    if stage == "propensity":
        pi = fit_propensity(ds, design).pi
        pi_hat = pi if extra is None else truncate_propensity(pi, *extra)
        return _checked_pi(pi_hat, ds.n, EstimationError)
    om = fit_outcome(ds, design, extra)
    return om.m1, om.m0


def _fitted(terms: dict[Hashable, object], ds: ObservationalDataset, plan: CellPlan, slot: int):
    """The vectors of fit ``slot``, fitted on first use; a failed fit raises
    :class:`FitFailure` for every pipeline that needs it."""
    key = plan.fits[slot]
    try:
        return _memo(terms, ("fit", slot), lambda: _fit(ds, key))
    except WateError as exc:
        raise FitFailure(key[0], exc) from None


def _fill(
    ds: ObservationalDataset,
    plan: CellPlan | Sequence[EstimationPipeline],
    cell: Callable[[Nuisance, EstimatorKind, TargetFunction], T],
) -> list[T | WateError]:
    """``cell(bundle, kind, target)`` for every pipeline of ``plan`` on
    ``ds``, or the error it failed with: the one pass over a dataset."""
    if not isinstance(plan, CellPlan):
        plan = plan_cells(plan)
    terms: dict[Hashable, object] = {}
    results: list[T | WateError] = []
    for p, (pi_slot, m_slot, t_slot) in zip(plan.pipelines, plan.slots):
        try:
            pi = m1 = m0 = None
            if pi_slot >= 0:
                pi = _fitted(terms, ds, plan, pi_slot)
            if m_slot >= 0:
                m1, m0 = _fitted(terms, ds, plan, m_slot)
            bundle = Nuisance(ds, pi, m1, m0, terms, pi_slot, m_slot, t_slot)
            results.append(cell(bundle, p.kind, p.estimand))
        except WateError as exc:
            results.append(exc)
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
    return _fill(ds, plan, estimate)


def cell_values(
    ds: ObservationalDataset, plan: CellPlan | Sequence[EstimationPipeline]
) -> NDArray[np.float64]:
    """Values of :func:`fill_cells`, NaN where a pipeline failed, computed
    by the same kernels without building any :class:`Diagnostics`."""
    results = _fill(ds, plan, _route)
    return np.array([np.nan if isinstance(r, WateError) else r[1] for r in results])
