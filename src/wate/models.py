"""Working models: logistic regression for the propensity score and ordinary
least squares for the outcome.

Both fitters prepend an intercept to the supplied design, check the design
matrix for numerical rank deficiency via QR, and return frozen model objects
that can be pickled into worker processes. The logistic fit is Newton's
method with step halving; convergence is declared when the largest score
component falls below ``SCORE_TOL``, and the fit fails after ``MAX_ITER``
Newton updates. Every fitted or predicted probability is clamped into
``[PROB_CLAMP, 1 - PROB_CLAMP]`` so inverse weights stay finite. A design is
rank deficient when its smallest ``|R_jj|`` is at most ``RANK_TOL`` times its
largest. The outcome fit solves through one reduced QR, whose R also serves
the rank check.

Each fitted model also carries its vectors on the fitting rows: the final
IRLS probabilities (``PropensityModel.pi``) and both arms' means
(``OutcomeModel.m1``/``m0``). They are bit-for-bit what
:func:`predict_propensity` and :func:`predict_outcome` return on those rows,
so a caller estimating on the fitting data needs no prediction; predict for
any other rows.

Each fit builds one model matrix, with the design evaluated straight into
it, and reuses it: the outcome fit gets ``m1`` and ``m0`` by overwriting the
arm and interaction columns in place, and the Newton steps of the logistic
fit write their weighted design and log likelihood terms into buffers
allocated once per fit. None of this changes an operation or its order, so
the results are the same bits.

At bootstrap sizes the n-by-k blocks that remain, most of them
``numpy.linalg.qr``'s own copies, are freed at the end of every fit. By
default glibc hands that memory back to the OS and the next fit faults it in
again, page by page. On glibc, importing this module therefore raises the
mmap threshold to 32 MiB and the trim threshold to 64 MiB (see
:func:`_keep_freed_heap`), so freed fit blocks stay in the heap for the next
fit; a user who sets either threshold through the environment keeps it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .data import ObservationalDataset
from .design import DesignSpec
from .errors import ConvergenceError, ModelFitError, RankDeficiencyError


_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _keep_freed_heap() -> None:
    """On glibc, serve blocks below 32 MiB from the heap and trim it only
    when 64 MiB lie free at its top; do nothing if the user set a malloc
    threshold or tunable.

    glibc's adaptive rule moves both thresholds this way on its own, but one
    fit behind: the blocks a fit frees leave more free space at the top of
    the heap than its current trim threshold, so the heap is trimmed and the
    next fit faults the pages in again. The settings move no arithmetic, and
    forked workers inherit them.
    """
    if "MALLOC_MMAP_THRESHOLD_" in os.environ or "MALLOC_TRIM_THRESHOLD_" in os.environ:
        return
    if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return
    if "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}):
        return
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        import ctypes  # missing from a CPython built without libffi

        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
    mallopt(-1, _TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


_keep_freed_heap()


SCORE_TOL = 1e-8
MAX_ITER = 100
PROB_CLAMP = 1e-12
RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PropensityModel:
    """``pi`` is the clamped probability vector on the fitting rows, ``None``
    for a model built by hand."""

    alpha: NDArray[np.float64]
    design: DesignSpec
    converged: bool
    iterations: int
    log_likelihood: float
    pi: NDArray[np.float64] | None = field(default=None, repr=False)


@dataclass(frozen=True, eq=False)
class OutcomeModel:
    """Linear model E[Y | X, A] = b0 + f(X)'b + A*c0 + A*g(X)'c.

    ``main_design`` supplies f, ``interaction_design`` supplies g. They may
    differ; the coefficient vector is laid out in that order. ``m1``/``m0``
    are the arm means on the fitting rows, ``None`` for a model built by hand.
    """

    beta: NDArray[np.float64]
    main_design: DesignSpec
    interaction_design: DesignSpec
    residual_variance: float
    m1: NDArray[np.float64] | None = field(default=None, repr=False)
    m0: NDArray[np.float64] | None = field(default=None, repr=False)


def _sigmoid(eta: NDArray[np.float64]) -> NDArray[np.float64]:
    # exp(-|eta|) never overflows; each branch is the textbook piecewise form
    # (1/(1 + e^-eta) for eta >= 0, e^eta/(1 + e^eta) below), bit for bit.
    ex = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _clamped_sigmoid(eta: NDArray[np.float64]) -> NDArray[np.float64]:
    return np.clip(_sigmoid(eta), PROB_CLAMP, 1.0 - PROB_CLAMP)


def _check_full_rank(
    M: NDArray[np.float64],
    what: str,
    r: NDArray[np.float64] | None = None,
) -> None:
    """Raise unless ``M`` has full column rank. ``r`` is the R factor of
    ``M`` when the caller has already factored it."""
    if M.shape[1] == 0:
        return
    if M.shape[0] < M.shape[1]:
        raise RankDeficiencyError(
            f"{what}: {M.shape[1]} columns but only {M.shape[0]} rows"
        )
    if r is None:
        r = np.linalg.qr(M, mode="r")
    r_diag = np.abs(np.diag(r))
    top = r_diag.max()
    if top == 0.0 or r_diag.min() <= RANK_TOL * top:
        raise RankDeficiencyError(
            f"{what} matrix is numerically rank deficient "
            f"(min/max |R_jj| = {r_diag.min():.3e}/{top:.3e})"
        )


def _design_matrix(design: DesignSpec, X: NDArray[np.float64]) -> NDArray[np.float64]:
    """``[1, design(X)]``, the design evaluated straight into its block."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    M = np.empty((X.shape[0], len(design) + 1))
    M[:, 0] = 1.0
    design.matrix(X, out=M[:, 1:])
    return M


def _outcome_matrix(
    main: DesignSpec,
    inter: DesignSpec,
    X: NDArray[np.float64],
    arm: NDArray[np.float64] | float,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """``[1, main(X), arm, arm * inter(X)]``, the one layout of the outcome
    model's columns for fitting and for predicting, and the interaction
    columns ``inter(X)``, which :func:`_set_arm` needs to switch the arm.
    Equal designs are evaluated once."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    kb = len(main)
    M = np.empty((X.shape[0], kb + 2 + len(inter)))
    M[:, 0] = 1.0
    main.matrix(X, out=M[:, 1:kb + 1])
    g = M[:, 1:kb + 1] if inter == main else inter.matrix(X)
    _set_arm(M, arm, g)
    return M, g


def _set_arm(
    M: NDArray[np.float64], arm: NDArray[np.float64] | float, g: NDArray[np.float64]
) -> None:
    """Overwrite the arm column of an outcome model matrix and the
    interaction block after it with ``arm`` and ``arm * g``."""
    j = M.shape[1] - g.shape[1] - 1
    M[:, j] = arm
    np.multiply(np.reshape(arm, (-1, 1)), g, out=M[:, j + 1:])


def fit_propensity(ds: ObservationalDataset, design: DesignSpec) -> PropensityModel:
    """Fit logistic regression of treatment on ``[1, design(X)]``.

    Raises :class:`RankDeficiencyError` when the design matrix is singular
    and :class:`ConvergenceError` (with the last iterate attached) when the
    score has not dropped below ``SCORE_TOL`` after ``MAX_ITER`` Newton
    updates.
    """
    M = _design_matrix(design, ds.X)
    _check_full_rank(M, "propensity design")
    A = ds.A
    not_A = 1.0 - A
    # Every Newton step rewrites these instead of allocating its own.
    weighted = np.empty_like(M)
    log_p = np.empty(ds.n)
    log_q = np.empty(ds.n)

    def loglik(p: NDArray[np.float64]) -> float:
        """Bernoulli log likelihood ``sum(A log p + (1 - A) log(1 - p))``."""
        np.multiply(A, np.log(p, out=log_p), out=log_p)
        np.multiply(not_A, np.log1p(np.negative(p, out=log_q), out=log_q), out=log_q)
        return float(np.sum(np.add(log_p, log_q, out=log_p)))

    alpha = np.zeros(M.shape[1])
    p = _clamped_sigmoid(M @ alpha)
    ll = loglik(p)
    converged = False
    updates = 0
    while True:
        score = M.T @ (A - p)
        if float(np.max(np.abs(score))) < SCORE_TOL:
            converged = True
            break
        if updates >= MAX_ITER:
            break
        w = p * (1.0 - p)
        hessian = np.multiply(M, w[:, None], out=weighted).T @ M
        try:
            delta = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError:
            model = PropensityModel(
                alpha=alpha, design=design, converged=False, iterations=updates,
                log_likelihood=ll, pi=p,
            )
            raise ConvergenceError(
                "singular information matrix during propensity fit "
                f"(after {updates} updates)", model=model,
            ) from None
        # Halve the step until the log likelihood stops decreasing; Newton's
        # direction is an ascent direction, so this terminates.
        step = 1.0
        for _ in range(50):
            cand = alpha + step * delta
            p_cand = _clamped_sigmoid(M @ cand)
            ll_cand = loglik(p_cand)
            if ll_cand >= ll - 1e-12:
                break
            step *= 0.5
        alpha, p, ll = cand, p_cand, ll_cand
        updates += 1
    pinned = bool(np.any(p <= PROB_CLAMP) or np.any(p >= 1.0 - PROB_CLAMP))
    model = PropensityModel(
        alpha=alpha,
        design=design,
        converged=converged and not pinned,
        iterations=updates,
        log_likelihood=ll,
        pi=p,
    )
    if not converged:
        raise ConvergenceError(
            f"propensity fit did not converge in {MAX_ITER} updates "
            f"(max |score| = {float(np.max(np.abs(M.T @ (A - p)))):.3e})",
            model=model,
        )
    if pinned:
        # The score can vanish with fitted probabilities stuck at the clamp
        # bounds, which is how separated data present themselves here. Such a
        # fit would feed effectively infinite weights downstream, so report
        # it as a failure rather than a model.
        raise ConvergenceError(
            "fitted probabilities pinned at the clamp bounds; "
            "treatment may be separable from these covariates",
            model=model,
        )
    return model


def predict_propensity(
    model: PropensityModel, X: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Predicted treatment probabilities, clamped into (0, 1)."""
    M = _design_matrix(model.design, X)
    if M.shape[1] != model.alpha.shape[0]:
        raise ModelFitError(
            f"design evaluates to {M.shape[1]} columns but the model has "
            f"{model.alpha.shape[0]} coefficients"
        )
    return _clamped_sigmoid(M @ model.alpha)


def truncate_propensity(
    pi: NDArray[np.float64], lower_pct: float, upper_pct: float
) -> NDArray[np.float64]:
    """Clip fitted propensities at their own empirical percentiles.

    Percentiles use linear interpolation between order statistics. The pair
    (0, 100) is a no-op apart from clipping at the observed min/max.
    """
    if not (0.0 <= lower_pct < upper_pct <= 100.0):
        raise ValueError(
            f"need 0 <= lower < upper <= 100, got ({lower_pct}, {upper_pct})"
        )
    pi = np.asarray(pi, dtype=np.float64)
    lo, hi = np.percentile(pi, [lower_pct, upper_pct])
    return np.clip(pi, lo, hi)


def fit_outcome(
    ds: ObservationalDataset,
    design: DesignSpec,
    interaction: DesignSpec | None = None,
) -> OutcomeModel:
    """Least squares fit of Y on ``[1, design(X), A, A * interaction(X)]``.

    ``interaction`` defaults to ``design``, giving every covariate term a
    treatment interaction. The residual variance uses the usual n - k
    denominator and requires at least one residual degree of freedom.
    """
    inter = design if interaction is None else interaction
    M, g = _outcome_matrix(design, inter, ds.X, ds.A)
    k = M.shape[1]
    q, r = np.linalg.qr(M)
    _check_full_rank(M, "outcome design", r)
    if ds.n - k < 1:
        raise ModelFitError(
            f"outcome model has {k} coefficients for {ds.n} rows; "
            "no residual degrees of freedom"
        )
    beta = np.linalg.solve(r, q.T @ ds.Y)
    resid = ds.Y - M @ beta
    residual_variance = float(resid @ resid / (ds.n - k))
    # Switching the arm in place writes 1*g and 0*g, the bits a matrix
    # rebuilt for each arm would hold.
    _set_arm(M, 1.0, g)
    m1 = M @ beta
    _set_arm(M, 0.0, g)
    m0 = M @ beta
    return OutcomeModel(
        beta=beta,
        main_design=design,
        interaction_design=inter,
        residual_variance=residual_variance,
        m1=m1,
        m0=m0,
    )


def predict_outcome(
    model: OutcomeModel, X: NDArray[np.float64], a: int
) -> NDArray[np.float64]:
    """Model mean outcome had everyone received arm ``a`` (0 or 1)."""
    if a not in (0, 1):
        raise ValueError(f"arm must be 0 or 1, got {a!r}")
    M, _ = _outcome_matrix(model.main_design, model.interaction_design, X, float(a))
    if M.shape[1] != model.beta.shape[0]:
        raise ModelFitError(
            f"design evaluates to {M.shape[1]} columns but the model has "
            f"{model.beta.shape[0]} coefficients"
        )
    return M @ model.beta
