"""Point estimators for weighted average treatment effects.

Every estimator is a short formula over the observed ``(A, Y)``, the target
weights ``h`` and three fitted vectors: the propensity ``pi`` and the arm
means ``m1`` and ``m0``. A :class:`Nuisance` bundle holds those vectors for
one dataset, so they are computed once however many estimates read them.

:func:`estimate` is the one entry point; it picks the formula from the
estimator kind and the target:

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

:func:`fill_cells` is the one fit-then-fill engine: it fits each distinct
working model a list of :class:`EstimationPipeline` cells names once on a
dataset and estimates every cell from the vectors the fits carry, with no
prediction. The bootstrap, the command line report and the Monte Carlo
study all go through it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np
from numpy.typing import NDArray

from .data import ObservationalDataset
from .design import DesignSpec
from .errors import EstimationError, FitFailure, MissingModelError, WateError
from .models import (
    FitOptions,
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


class EstimatorKind(enum.Enum):
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


def _finite(value: float, what: str) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise EstimationError(f"{what} evaluated to a non-finite value")
    return value


def _h_checked(h: NDArray[np.float64]) -> NDArray[np.float64]:
    """``h`` from :func:`~wate.targets._h_values` (length, finiteness and
    sign already checked), refused when it puts no mass on the sample."""
    if float(np.sum(h)) <= 0.0:
        raise EstimationError("target function puts zero mass on the sample")
    return h


def _ess(weights: NDArray[np.float64]) -> float:
    total = float(np.sum(weights))
    if total <= 0.0:
        return 0.0
    return total * total / float(np.sum(weights * weights))


def _point(
    value: float,
    kind: EstimatorKind,
    estimand: TargetFunction,
    n: int,
    h_total: float,
    ess_treated: float,
    ess_control: float,
) -> PointEstimate:
    return PointEstimate(
        value=value,
        estimator=kind,
        estimand=estimand,
        n_used=n,
        diagnostics=Diagnostics(h_total=h_total, ess_treated=ess_treated, ess_control=ess_control),
    )


# --- kernels over (A, Y, h, pi, m1, m0) ---------------------------------------


def _regression(
    nu: Nuisance, h: NDArray[np.float64], estimand: TargetFunction
) -> PointEstimate:
    A = nu.ds.A
    m1, m0 = nu.arm_means("regression estimator")
    h = _h_checked(h)
    value = _finite(np.sum(h * (m1 - m0)) / np.sum(h), "regression estimate")
    return _point(
        value, EstimatorKind.REGRESSION, estimand, nu.ds.n,
        float(np.sum(h)), _ess(h[A == 1.0]), _ess(h[A == 0.0]),
    )


def _regression_on_arm(nu: Nuisance, target: TargetFunction) -> PointEstimate:
    A, Y = nu.ds.A, nu.ds.Y
    m1, m0 = nu.arm_means("regression estimator")
    treated = target.kind is TargetKind.ATT
    if treated:
        who, arm, contrast = "treated", A, Y - m0
    else:
        who, arm, contrast = "control", 1.0 - A, m1 - Y
    size = float(np.sum(arm))
    if size < 1.0:
        raise EstimationError(f"no {who} observations")
    value = _finite(np.sum(arm * contrast) / size, f"{who} regression estimate")
    return _point(
        value, EstimatorKind.REGRESSION, target, nu.ds.n,
        size, size if treated else 0.0, 0.0 if treated else size,
    )


def _ipw(
    nu: Nuisance, h: NDArray[np.float64], estimand: TargetFunction
) -> PointEstimate:
    A, Y, pi = nu.ds.A, nu.ds.Y, nu.propensity("weighting estimator")
    tw = A * (h / pi)
    cw = (1.0 - A) * (h / (1.0 - pi))
    st = float(np.sum(tw))
    sc = float(np.sum(cw))
    if st <= 0.0 or sc <= 0.0:
        raise EstimationError("zero weight mass in one arm")
    value = _finite(np.sum(tw * Y) / st - np.sum(cw * Y) / sc, "ipw estimate")
    return _point(
        value, EstimatorKind.IPW_NORMALIZED, estimand, nu.ds.n,
        float(np.sum(h)), _ess(tw), _ess(cw),
    )


def _aipw(
    nu: Nuisance, h: NDArray[np.float64], estimand: TargetFunction
) -> PointEstimate:
    A, Y, pi = nu.ds.A, nu.ds.Y, nu.propensity("augmented estimator")
    m1, m0 = nu.arm_means("augmented estimator")
    h = _h_checked(h)
    arm1 = A * Y / pi - (A - pi) / pi * m1
    arm0 = (1.0 - A) * Y / (1.0 - pi) + (A - pi) / (1.0 - pi) * m0
    value = _finite(np.sum(h * (arm1 - arm0)) / np.sum(h), "augmented estimate")
    et, ec = _ess(A * h / pi), _ess((1.0 - A) * h / (1.0 - pi))
    return _point(value, EstimatorKind.AIPW, estimand, nu.ds.n, float(np.sum(h)), et, ec)


def _dr_linear(nu: Nuisance, a: float, b: float, estimand: TargetFunction) -> PointEstimate:
    """sum [ (a + b*A)*(m1 - m0) + (a + b*pi) * (A/pi*(Y - m1) - (1-A)/(1-pi)*(Y - m0)) ]
    / sum (a + b*A). The denominator replaces pi with the observed treatment
    indicator, which is what makes the estimator consistent when only one
    model is right."""
    A, Y, pi = nu.ds.A, nu.ds.Y, nu.propensity("doubly robust estimator")
    m1, m0 = nu.arm_means("doubly robust estimator")
    # The sign of h is checked first, by the same code and with the same
    # message as for every other estimator of this target.
    h = _h_values(estimand, nu.ds.X, pi)
    c_obs = a + b * A
    denom = float(np.sum(c_obs))
    if denom <= 0.0:
        raise EstimationError("denominator sum(a + b*A) is not positive")
    resid = A / pi * (Y - m1) - (1.0 - A) / (1.0 - pi) * (Y - m0)
    value = _finite(np.sum(c_obs * (m1 - m0) + h * resid) / denom, "doubly robust estimate")
    et, ec = _ess(A * h / pi), _ess((1.0 - A) * h / (1.0 - pi))
    return _point(
        value, EstimatorKind.DR_LINEAR_IN_PI, estimand, nu.ds.n, float(np.sum(h)), et, ec
    )


def _linear_coefficients(target: TargetFunction) -> tuple[float, float] | None:
    """(a, b) with h = a + b*pi, for the targets that have that form."""
    if target.kind is TargetKind.ATT:
        return 0.0, 1.0
    if target.kind is TargetKind.ATC:
        return 1.0, -1.0
    if target.kind is TargetKind.LINEAR:
        return target.a, target.b
    return None


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
    :class:`Nuisance` bundle of already fitted vectors (then pass no model).
    ``pi_hat`` overrides model predictions when given (used to inject
    percentile-truncated propensities). The augmented estimator for the
    treated, control and a + b*pi targets is the doubly robust closed form,
    labelled :attr:`EstimatorKind.DR_LINEAR_IN_PI`; the generic augmented
    form for such an h is a covariate target, e.g.
    ``covariate_target(functools.partial(predict_propensity, pm), "pi")``.
    """
    if isinstance(ds, Nuisance):
        if pm is not None or om is not None or pi_hat is not None:
            raise EstimationError("pass fitted models or a Nuisance bundle, not both")
        nu = ds
    else:
        nu = Nuisance.from_models(ds, pm, om, pi_hat)
    if kind is EstimatorKind.REGRESSION and target.kind in (TargetKind.ATT, TargetKind.ATC):
        return _regression_on_arm(nu, target)
    ab = _linear_coefficients(target)
    if kind in (EstimatorKind.AIPW, EstimatorKind.DR_LINEAR_IN_PI) and ab is not None:
        return _dr_linear(nu, ab[0], ab[1], target)
    if kind is EstimatorKind.DR_LINEAR_IN_PI:
        raise EstimationError(
            f"closed-form doubly robust estimator only supports targets linear in "
            f"the propensity, not {target.label!r}"
        )
    pi = nu.propensity(f"target {target.label!r}") if target.depends_on_propensity else nu.pi
    h = _h_values(target, nu.ds.X, pi)
    if kind is EstimatorKind.REGRESSION:
        return _regression(nu, h, target)
    if kind is EstimatorKind.AIPW:
        return _aipw(nu, h, target)
    if kind is EstimatorKind.IPW_NORMALIZED:
        return _ipw(nu, h, target)
    raise EstimationError(f"unknown estimator kind {kind!r}")


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
    options: FitOptions = field(default_factory=FitOptions)


def _fitted(
    fits: dict[tuple[Hashable, ...], Nuisance | WateError],
    ds: ObservationalDataset,
    key: tuple[Hashable, ...],
) -> Nuisance:
    """The fit ``key`` names, made on first use and then reused."""
    stage, design, extra, options = key
    if key not in fits:
        try:
            if stage == "propensity":
                pi = fit_propensity(ds, design, options).pi
                pi_hat = pi if extra is None else truncate_propensity(pi, *extra)
                fits[key] = Nuisance.from_models(ds, pi_hat=pi_hat)
            else:
                om = fit_outcome(ds, design, extra, options)
                fits[key] = Nuisance(ds, m1=om.m1, m0=om.m0)
        except WateError as exc:
            fits[key] = exc
    fit = fits[key]
    if isinstance(fit, WateError):
        raise FitFailure(stage, fit)
    return fit


def fill_cells(
    ds: ObservationalDataset, pipelines: Sequence[EstimationPipeline]
) -> list[PointEstimate | WateError]:
    """Estimate every pipeline on ``ds``, fitting each distinct working model
    once.

    A propensity fit is shared by the pipelines with equal design,
    truncation and options, an outcome fit by those with equal main design,
    interaction design and options. A pipeline whose model failed to fit gets
    a :class:`FitFailure`, one whose estimate failed gets that error.
    """
    fits: dict[tuple[Hashable, ...], Nuisance | WateError] = {}
    results: list[PointEstimate | WateError] = []
    for p in pipelines:
        try:
            pi = arms = Nuisance(ds)
            if p.pi_design is not None:
                pi = _fitted(fits, ds, ("propensity", p.pi_design, p.truncate, p.options))
            if p.m_design is not None:
                arms = _fitted(fits, ds, ("outcome", p.m_design, p.m_interaction, p.options))
            bundle = Nuisance(ds, pi.pi, arms.m1, arms.m0)
            results.append(estimate(bundle, p.kind, p.estimand))
        except WateError as exc:
            results.append(exc)
    return results


def cell_values(
    ds: ObservationalDataset, pipelines: Sequence[EstimationPipeline]
) -> NDArray[np.float64]:
    """Values of :func:`fill_cells`, NaN where a pipeline failed."""
    return np.array(
        [r.value if isinstance(r, PointEstimate) else np.nan for r in fill_cells(ds, pipelines)]
    )
