"""Target functions.

A target function h(x) >= 0 picks the population a contrast is averaged
over: h = 1 targets everyone, h = pi the treated, h = 1 - pi the controls,
h = pi(1 - pi) the overlap population, and h = a + b*pi any fixed linear
function of the propensity. A known nonnegative function of the covariates
is also allowed. The weighting estimator turns h into the balancing weights
w1 = h/pi on the treated and w0 = h/(1 - pi) on the controls.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Container

import numpy as np
from numpy.typing import NDArray

from .errors import NegativeTargetError, PropensityRequiredError, TargetError, WateError


class TargetKind(enum.Enum):
    ATE = "ate"
    ATT = "att"
    ATC = "atc"
    ATO = "ato"
    LINEAR = "linear"
    COVARIATE = "covariate"


# Which kinds need a propensity to evaluate h at all.
_NEEDS_PI = {TargetKind.ATT, TargetKind.ATC, TargetKind.ATO, TargetKind.LINEAR}


@dataclass(frozen=True)
class TargetFunction:
    """One choice of h. Build through the factory functions below."""

    kind: TargetKind
    a: float = 0.0
    b: float = 0.0
    fn: Callable[[NDArray[np.float64]], NDArray[np.float64]] | None = None
    label: str = ""

    @property
    def depends_on_propensity(self) -> bool:
        return self.kind in _NEEDS_PI


def average_effect() -> TargetFunction:
    """h = 1: effect averaged over the whole population."""
    return TargetFunction(kind=TargetKind.ATE, label="ate")


def effect_on_treated() -> TargetFunction:
    """h = pi: effect averaged over the treated."""
    return TargetFunction(kind=TargetKind.ATT, label="att")


def effect_on_controls() -> TargetFunction:
    """h = 1 - pi: effect averaged over the controls."""
    return TargetFunction(kind=TargetKind.ATC, label="atc")


def overlap_effect() -> TargetFunction:
    """h = pi(1 - pi): effect averaged over the overlap population."""
    return TargetFunction(kind=TargetKind.ATO, label="ato")


def linear_in_propensity(a: float, b: float) -> TargetFunction:
    """h = a + b*pi with finite (a, b) != (0, 0); h must stay nonnegative on
    the data."""
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"coefficients (a, b) must be finite, got ({a:g}, {b:g})")
    if a == 0.0 and b == 0.0:
        raise ValueError("coefficients (a, b) must not both be zero")
    return TargetFunction(kind=TargetKind.LINEAR, a=a, b=b, label=f"linear:{a:g},{b:g}")


def covariate_target(
    fn: Callable[[NDArray[np.float64]], NDArray[np.float64]], label: str
) -> TargetFunction:
    """h = fn(X), a known nonnegative function of the covariates only."""
    return TargetFunction(kind=TargetKind.COVARIATE, fn=fn, label=label)


# The four standard targets by their tokens, in report order.
STANDARD_TARGETS: dict[str, TargetFunction] = {
    t.label: t
    for t in (average_effect(), effect_on_treated(), effect_on_controls(), overlap_effect())
}


def _checked_pi(
    pi_hat, n: int, error: type[WateError] = TargetError
) -> NDArray[np.float64]:
    """The one check of a supplied propensity vector; ``error`` is the
    caller's error type."""
    pi = np.asarray(pi_hat, dtype=np.float64).ravel()
    if pi.shape[0] != n:
        raise error(f"propensity vector has length {pi.shape[0]}, expected {n}")
    # Written so that NaN fails it too.
    if not np.all((pi > 0.0) & (pi < 1.0)):
        raise error("propensity values must lie strictly inside (0, 1)")
    return pi


def evaluate_h(
    target: TargetFunction,
    X: NDArray[np.float64],
    pi_hat: NDArray[np.float64] | None = None,
) -> NDArray[np.float64]:
    """Evaluate h rowwise. Propensity-dependent targets require ``pi_hat``."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    pi = None
    if target.depends_on_propensity:
        if pi_hat is None:
            raise PropensityRequiredError(
                f"target {target.label!r} needs fitted propensities"
            )
        pi = _checked_pi(pi_hat, X.shape[0])[None]
    h, errors = _h_values(target, X[None], pi)
    if errors:
        raise errors[0]
    return h[0]


def _h_values(
    target: TargetFunction,
    X: NDArray[np.float64],
    pi: NDArray[np.float64] | None,
    skip: Container[int] = (),
) -> tuple[NDArray[np.float64], dict[int, WateError]]:
    """h on each replicate of a (b, n, p) stack ``X``, for a (b, n) stack of
    propensities that have already been checked (and are present whenever
    the target depends on them): the (b, n) values, and the error of each
    replicate on which h failed, by position, kept without its traceback.
    A function of the propensity is evaluated on the whole stack, a
    covariate target's function once per replicate. The replicates in
    ``skip`` get zeros, and no call and no error."""
    b, n = X.shape[:2]
    errors: dict[int, WateError] = {}
    if target.kind is TargetKind.COVARIATE:
        h = np.zeros((b, n))
        for i in range(b):
            if i not in skip:
                try:
                    h[i] = _covariate_h(target, X[i])
                except WateError as exc:
                    errors[i] = exc.with_traceback(None)
        return h, errors
    if target.kind is TargetKind.ATE:
        h = np.ones((b, n))
    elif target.kind is TargetKind.ATT:
        h = pi.copy()
    elif target.kind is TargetKind.ATC:
        h = 1.0 - pi
    elif target.kind is TargetKind.ATO:
        h = pi * (1.0 - pi)
    elif target.kind is TargetKind.LINEAR:
        h = target.a + target.b * pi
        negative = np.any(h < 0.0, axis=1)
        if negative.any():
            error = NegativeTargetError(
                f"{target.label}: a + b*pi is negative for some observations"
            )
            errors = {i: error for i in np.flatnonzero(negative).tolist() if i not in skip}
    else:
        raise TargetError(f"unhandled target kind {target.kind}")
    for i in skip:
        h[i] = 0.0
    return h, errors


def _covariate_h(target: TargetFunction, X: NDArray[np.float64]) -> NDArray[np.float64]:
    """h of a covariate target on the rows of a 2-D ``X``."""
    n = X.shape[0]
    if target.fn is None:
        raise TargetError("covariate target has no function attached")
    h = np.asarray(target.fn(X), dtype=np.float64).ravel()
    if h.shape[0] != n:
        raise TargetError(
            f"covariate target returned length {h.shape[0]}, expected {n}"
        )
    if not np.all(np.isfinite(h)):
        raise TargetError("covariate target produced non-finite values")
    if np.any(h < 0.0):
        raise NegativeTargetError(
            f"{target.label}: covariate target is negative for some observations"
        )
    return h
