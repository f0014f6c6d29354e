"""Working models: logistic regression for the propensity score and ordinary
least squares for the outcome.

Both fitters prepend an intercept to the supplied design, check the design
matrix for numerical rank deficiency, and return frozen model objects that
can be pickled into worker processes. The logistic fit is Newton's
method with step halving; convergence is declared when the largest score
component falls below ``SCORE_TOL``, and the fit fails after ``MAX_ITER``
Newton updates. Every fitted or predicted probability is clamped into
``[PROB_CLAMP, 1 - PROB_CLAMP]`` so inverse weights stay finite. A design is
rank deficient when its smallest ``|R_jj|`` is at most ``RANK_TOL`` times its
largest. The outcome fit solves through one reduced QR, whose R also serves
the rank check. The propensity fit needs no QR but for that check, so it
first tries to prove full rank from each design's Gram matrix ``M'M``: when
its eigenvalues have ``lambda_min > 1e-6 * lambda_max``, every R factor of
the design has ``min/max |R_jj| > 1e-3``, far from ``RANK_TOL``, and the
design is not factored (see :func:`_gram_full_rank`). Only the designs the
Gram matrix cannot prove, ill-conditioned, rank deficient or overflowing
ones, are factored, so every decision and message is the QR's. At n = 5000
and six columns the proof took 65 us against 98 us for the QR in a warm
loop, and the rank checks of a 51-fit bootstrap fell from 8.2 to 6.0 ms
(x86-64, one BLAS thread).

Both fits run over a stack of problems: the study and the bootstrap fit
each working model on a :class:`~wate.data._Stack` of same-n replicates at
once, which pays numpy's fixed cost per call once per stack. There is one
IRLS (:func:`_irls`) and one least squares fit (:func:`_fit_outcomes`), each
on a (b, n, k) stack of model matrices, the least squares fit a part of the
stack at a time (see below); :func:`fit_propensity` and
:func:`fit_outcome` are stacks of one, made of views of the dataset. A
stacked ``qr``, ``solve`` or ``matmul`` computes each slice as the 2-D call
does, so every problem of a stack gets the bits and the error it gets alone.

Each fitted model also carries its vectors on the fitting rows: the final
IRLS probabilities (``PropensityModel.pi``) and both arms' means
(``OutcomeModel.m1``/``m0``). They are bit-for-bit what
:func:`predict_propensity` and :func:`predict_outcome` return on those rows,
so a caller estimating on the fitting data needs no prediction; predict for
any other rows. Only :func:`fit_outcome` computes the residual variance,
which no estimator reads.

Each design is evaluated once per stack, by one
:meth:`~wate.design.DesignSpec.matrix` call on the (b, n, p) covariates,
straight into one stack of model matrices. A design that raises on the
stack, e.g. a square that overflows in one replicate, is evaluated again
replicate by replicate, only then, so each replicate gets its own error; the
IRLS finds a singular information matrix the same way. The slices are
column-major, a (b, k, n) array seen as (b, n, k): each design column is
written to contiguous memory, and ``numpy.linalg.qr``, which copies every
slice into a Fortran buffer for LAPACK, copies it without transposing. The
BLAS products read row-major model matrices, since a column-major operand
changes the bits of ``matmul``: the IRLS gets one C-contiguous copy of the
stack, of its full-rank slices when some are not, and the outcome fit gets
``m1`` and ``m0`` by switching the arm and interaction columns of its stack
and copying it into one row-major buffer before each ``M @ beta``. The
Newton steps of the logistic fit write their weighted design and log
likelihood terms into buffers allocated once per stack. A Newton step clamps
its probabilities in place and divides once per sigmoid. None of this
changes the value of an element or the order of a sum, and LAPACK reads the
same buffer in either layout, so the results are the same bits.

The outcome fit's QR is the largest transient of a pass: it holds the model
matrices, numpy's copy of them, ``q`` and LAPACK's buffers at once. So
:func:`_fit_outcomes` works through its stack in consecutive parts of
the fewest replicates that hold at least ``_PART_ROWS`` rows,
``max(1, ceil(_PART_ROWS / n))``, ``_PART_ROWS`` being half the stack's
``wate.data._BATCH_ROWS`` (4096 of 8192 rows), each part evaluated,
factored, checked for rank and solved as one stack. A part holds 4096 to
8191 rows up to n = 4096 and one replicate above it (5000 rows at n = 1000
and at n = 5000), which keeps the QR's peak at a part's rows rather than a
whole stack's; factoring all 8192 rows of a stack at once was no faster and
raised a study's peak memory by 1 MB more (n = 1000). The IRLS
and the fill, whose fixed cost per numpy call is what a larger stack saves,
take the whole stack.

At bootstrap sizes the n-by-k blocks of a fit (the stack, its row-major
copy, ``numpy.linalg.qr``'s copy of it and ``q``) are freed at the end of
every fit. By default glibc hands that memory back to the OS and the next
fit faults it in again, page by page. On glibc, importing this module
therefore raises the mmap threshold to 32 MiB and the trim threshold to 64
MiB (see :func:`_keep_freed_heap`), so freed fit blocks stay in the heap for
the next fit; a user who sets either threshold through the environment
keeps it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np
from numpy.typing import NDArray

from .data import _BATCH_ROWS, ObservationalDataset, _Stack, _stack_size
from .design import DesignSpec
from .errors import ConvergenceError, ModelFitError, RankDeficiencyError, WateError


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


# Rows of data per part of an outcome fit; see the module docstring.
_PART_ROWS = _BATCH_ROWS // 2

SCORE_TOL = 1e-8
MAX_ITER = 100
PROB_CLAMP = 1e-12
RANK_TOL = 1e-10
# Eigenvalue ratio of a Gram matrix that proves full rank; see _gram_full_rank.
_GRAM_TOL = 1e-6


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
    # (1/(1 + e^-eta) for eta >= 0, e^eta/(1 + e^eta) below), bit for bit:
    # the numerator is picked per element and divided once. The terms are
    # computed in place, into two arrays in all.
    ex = np.abs(eta)
    np.exp(np.negative(ex, out=ex), out=ex)
    p = np.where(eta >= 0, 1.0, ex)
    return np.divide(p, np.add(ex, 1.0, out=ex), out=p)


def _clamped_sigmoid(eta: NDArray[np.float64]) -> NDArray[np.float64]:
    p = _sigmoid(eta)
    np.maximum(p, PROB_CLAMP, out=p)
    return np.minimum(p, 1.0 - PROB_CLAMP, out=p)


def _rank_errors(
    M: NDArray[np.float64], what: str, r: NDArray[np.float64] | None = None
) -> list[WateError | None]:
    """For each matrix of the (b, n, k) stack ``M``, ``None`` if it has
    full column rank, else the :class:`RankDeficiencyError`. ``r`` is the
    stack of R factors when the caller has already factored ``M``.

    Without ``r``, the matrices :func:`_gram_full_rank` proves to have full
    rank are not factored: a stacked QR checks only the others, with
    ``|R_jj|``, so every decision and message is the one the QR gives."""
    b, n, k = M.shape
    if n < k:
        return [RankDeficiencyError(f"{what}: {k} columns but only {n} rows")] * b
    errors: list[WateError | None] = [None] * b
    rows = range(b)
    if r is None:
        rows = np.flatnonzero(~_gram_full_rank(M)).tolist()
        if not rows:
            return errors
        r = np.linalg.qr(M if len(rows) == b else M[rows], mode="r")
    r_diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    for i, top, low in zip(rows, r_diag.max(axis=1).tolist(), r_diag.min(axis=1).tolist()):
        if not (top != 0.0 and low > RANK_TOL * top):
            errors[i] = RankDeficiencyError(
                f"{what} matrix is numerically rank deficient (min/max |R_jj| = {low:.3e}/{top:.3e})"
            )
    return errors


def _gram_full_rank(M: NDArray[np.float64]) -> NDArray[np.bool_]:
    """For each matrix of the (b, n, k) stack ``M``, whether its Gram matrix
    ``M'M`` is finite with eigenvalues ``lambda_min > _GRAM_TOL *
    lambda_max``, which proves that ``M`` has full column rank by the QR
    rank check's ``RANK_TOL``; ``False`` says nothing.

    Why the proof holds: ``M`` then has ``cond2(M) < 1/sqrt(_GRAM_TOL) =
    1e3``, and every triangular factor R of ``M`` has ``min/max |R_jj| >=
    1/cond2(M)``, far above ``RANK_TOL = 1e-10``. Forming the Gram matrix
    and its eigenvalues perturbs them by about ``n k`` units in the last
    place of ``lambda_max``, and the QR's R by as much, which ``_GRAM_TOL``
    covers at any n that fits in memory. A Gram matrix that overflows is
    not finite, and its matrix goes to the QR."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = M.transpose(0, 2, 1) @ M
    finite = np.isfinite(gram).all(axis=(1, 2))
    proved = np.zeros_like(finite)
    try:
        lam = np.linalg.eigvalsh(gram[finite])
    except np.linalg.LinAlgError:
        return proved
    proved[finite] = lam[:, 0] > _GRAM_TOL * lam[:, -1]
    return proved


def _design_matrix(
    design: DesignSpec, X: NDArray[np.float64], out: NDArray[np.float64] | None = None
) -> NDArray[np.float64]:
    """``[1, design(X)]``, the design evaluated straight into its block of
    ``out``, or of a new array; of each replicate for a (b, n, p) stack."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    M = np.empty((*X.shape[:-1], len(design) + 1)) if out is None else out
    M[..., 0] = 1.0
    design.matrix(X, out=M[..., 1:])
    return M


def _outcome_matrix(
    main: DesignSpec,
    inter: DesignSpec,
    X: NDArray[np.float64],
    arm: NDArray[np.float64] | float,
    out: NDArray[np.float64] | None = None,
    g: NDArray[np.float64] | None = None,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """``[1, main(X), arm, arm * inter(X)]``, the one layout of the outcome
    model's columns for fitting and for predicting, and the interaction
    columns ``inter(X)``, which :func:`_set_arm` needs to switch the arm,
    each evaluated into ``out`` and ``g`` when given; of each replicate for
    a (b, n, p) stack and a (b, n) ``arm``. Equal designs are evaluated
    once: ``g`` is then the main block of the matrix."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    kb = len(main)
    M = np.empty((*X.shape[:-1], kb + 2 + len(inter))) if out is None else out
    M[..., 0] = 1.0
    main.matrix(X, out=M[..., 1:kb + 1])
    g = M[..., 1:kb + 1] if inter == main else inter.matrix(X, out=g)
    _set_arm(M, arm, g)
    return M, g


def _set_arm(
    M: NDArray[np.float64], arm: NDArray[np.float64] | float, g: NDArray[np.float64]
) -> None:
    """Overwrite the arm column of an outcome model matrix, or of a stack of
    them, and the interaction block after it with ``arm`` and ``arm * g``."""
    j = M.shape[-1] - g.shape[-1] - 1
    M[..., j] = arm
    np.multiply(np.asarray(arm)[..., None], g, out=M[..., j + 1:])


def fit_propensity(ds: ObservationalDataset, design: DesignSpec) -> PropensityModel:
    """Fit logistic regression of treatment on ``[1, design(X)]``.

    Raises :class:`RankDeficiencyError` when the design matrix is singular
    and :class:`ConvergenceError` (with the last iterate attached) when the
    score has not dropped below ``SCORE_TOL`` after ``MAX_ITER`` Newton
    updates.
    """
    (result,) = _fit_propensities(_Stack.of(ds), design)
    if isinstance(result, WateError):
        raise result
    return result


def _evaluated(
    evaluate: Callable[[Any], object], b: int, *outs: NDArray[np.float64]
) -> list[WateError | None]:
    """Run ``evaluate(...)``, which evaluates a stack of b replicates into
    ``outs``, and return the error of each replicate: none when it returns.
    When it raises, each replicate i is evaluated alone by ``evaluate(i)``
    instead, and one that raises gets its error, kept without its traceback,
    and zeros in ``outs``."""
    try:
        evaluate(...)
        return [None] * b
    except WateError:
        pass
    errors: list[WateError | None] = []
    for i in range(b):
        try:
            evaluate(i)
            errors.append(None)
        except WateError as exc:
            errors.append(exc.with_traceback(None))
            for out in outs:
                out[i] = 0.0
    return errors


def _fit_propensities(stack: _Stack, design: DesignSpec) -> list[PropensityModel | WateError]:
    """:func:`fit_propensity` of ``design`` on each replicate of ``stack``:
    its model, or the error it failed with. The design is evaluated once,
    into one stack of column-major slices, the stack is checked for rank by
    one stacked QR, and a row-major copy of the full-rank designs is fitted
    by one stacked IRLS."""
    X, A = stack.X, stack.A
    b, n = A.shape
    M = np.empty((b, len(design) + 1, n)).transpose(0, 2, 1)
    errors = _evaluated(lambda i: _design_matrix(design, X[i], M[i]), b, M)
    results: list[PropensityModel | WateError | None] = [
        error or rank for error, rank in zip(errors, _rank_errors(M, "propensity design"))
    ]
    rows = [i for i, error in enumerate(results) if error is None]
    if rows:
        # One row-major copy for the IRLS's BLAS products, of the full-rank
        # slices when some are not; fancy indexing the stack would keep its
        # column-major layout. The stack is freed before the IRLS, which
        # needs only the copy.
        full_rank = np.empty((b, n, M.shape[2]))
        np.copyto(full_rank, M)
        del M
        if len(rows) < b:
            full_rank, A = full_rank[rows], A[rows]
        for i, result in zip(rows, _irls(full_rank, A, design)):
            results[i] = result
    return results


def _irls(
    M: NDArray[np.float64], A: NDArray[np.float64], design: DesignSpec
) -> list[PropensityModel | ConvergenceError]:
    """Newton's method with step halving on each problem of a stack: ``M``
    is a C-contiguous (b, n, k) stack of model matrices, ``A`` the (b, n)
    stack of treatments.

    Every problem runs the sequence of a fit on its own: the score test, the
    ``MAX_ITER`` stop, the solve and up to 50 halvings of its own step, on
    bits equal to those of the 2-D calls, since a stacked ``matmul`` or
    ``linalg.solve`` computes each slice as the 2-D call does and a row sum
    of a C-contiguous block sums the row as a vector sum does. Problems
    start together, so they share the update count. One that converges or
    fails leaves the stack, and the others go on; the stack is compacted
    only then. The solve is repeated slice by slice only when some
    information matrix is singular, to find which.

    The stack's length-n vectors are kept end to end in one flat array:
    numpy's fixed cost per call is lower on 1-D arrays, and elementwise
    arithmetic gives the same bits in either shape.
    """
    b, n, _ = M.shape
    results: list[PropensityModel | ConvergenceError | None] = [None] * b
    # Each problem's index in the results and its log likelihood, as Python
    # values: a comparison per problem costs less than a numpy call per stack.
    ids = list(range(b))
    A = A.reshape(-1)
    not_A = 1.0 - A
    # Every Newton step rewrites these instead of allocating its own; a
    # shrunken stack uses their leading part.
    weighted = np.empty_like(M)
    log_p = np.empty(b * n)
    log_q = np.empty(b * n)

    alpha = np.zeros((b, M.shape[2], 1))
    # The probabilities at alpha = 0: M is finite, so M @ alpha is +-0 and
    # its clamped sigmoid exactly 1/2.
    p = np.full(b * n, 0.5)
    ll = _loglik(p, A, not_A, log_p, log_q, n)
    updates = 0
    while True:
        m = len(ids)
        score = M.transpose(0, 2, 1) @ (A - p).reshape(m, n, 1)
        top = np.maximum.reduce(np.abs(score[:, :, 0]), axis=1).tolist()
        stop = [j for j, t in enumerate(top) if t < SCORE_TOL or updates >= MAX_ITER]
        if stop:
            for j in stop:
                converged = top[j] < SCORE_TOL
                results[ids[j]] = _stopped(
                    design, alpha[j], p[j * n:(j + 1) * n], ll[j], updates, converged,
                    "" if converged else f"propensity fit did not converge in {MAX_ITER} "
                    f"updates (max |score| = {top[j]:.3e})",
                )
            keep = [j for j in range(m) if j not in stop]
            if not keep:
                break
            ids, ll, m = [ids[j] for j in keep], [ll[j] for j in keep], len(keep)
            M, alpha, score = M[keep], alpha[keep], score[keep]
            A, not_A, p = (x.reshape(-1, n)[keep].reshape(-1) for x in (A, not_A, p))
        w = p * (1.0 - p)
        hessian = np.multiply(M, w.reshape(m, n, 1), out=weighted[:m]).transpose(0, 2, 1) @ M
        try:
            delta = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError:
            delta = np.zeros_like(score)
            keep = []
            for j in range(m):
                try:
                    delta[j] = np.linalg.solve(hessian[j], score[j])
                    keep.append(j)
                except np.linalg.LinAlgError:
                    results[ids[j]] = _stopped(
                        design, alpha[j], p[j * n:(j + 1) * n], ll[j], updates, False,
                        f"singular information matrix during propensity fit (after "
                        f"{updates} updates)",
                    )
            if not keep:
                break
            ids, ll, m = [ids[j] for j in keep], [ll[j] for j in keep], len(keep)
            M, alpha, delta = M[keep], alpha[keep], delta[keep]
            A, not_A, p = (x.reshape(-1, n)[keep].reshape(-1) for x in (A, not_A, p))
        # Halve each problem's step until its log likelihood stops
        # decreasing; Newton's direction is an ascent direction, so this
        # terminates. The problems still halving have halved equally often.
        cand = alpha + delta
        p_cand = _clamped_sigmoid((M @ cand).reshape(-1))
        ll_cand = _loglik(p_cand, A, not_A, log_p[:m * n], log_q[:m * n], n)
        halving = [j for j in range(m) if not ll_cand[j] >= ll[j] - 1e-12]
        step = 1.0
        for _ in range(49):
            if not halving:
                break
            step *= 0.5
            c = alpha[halving] + step * delta[halving]
            pc = _clamped_sigmoid((M[halving] @ c).reshape(-1))
            a, not_a = (x.reshape(-1, n)[halving].reshape(-1) for x in (A, not_A))
            lc = _loglik(pc, a, not_a, np.empty_like(pc), np.empty_like(pc), n)
            cand[halving] = c
            p_cand.reshape(m, n)[halving] = pc.reshape(-1, n)
            for j, value in zip(halving, lc):
                ll_cand[j] = value
            halving = [j for j, value in zip(halving, lc) if not value >= ll[j] - 1e-12]
        alpha, p, ll = cand, p_cand, ll_cand
        updates += 1
    return results


def _stopped(
    design: DesignSpec,
    alpha: NDArray[np.float64],
    pi: NDArray[np.float64],
    ll: float,
    updates: int,
    converged: bool,
    message: str,
) -> PropensityModel | ConvergenceError:
    """The model of a problem that leaves the stack, or the error its fit
    ends with: ``message`` if given, else the pinned-probability error when
    a converged fit has a probability at a clamp bound."""
    pinned = converged and bool(np.any(pi <= PROB_CLAMP) or np.any(pi >= 1.0 - PROB_CLAMP))
    model = PropensityModel(
        alpha=alpha[:, 0], design=design, converged=converged and not pinned,
        iterations=updates, log_likelihood=ll, pi=pi,
    )
    if pinned:
        # The score can vanish with fitted probabilities stuck at the clamp
        # bounds, which is how separated data present themselves here. Such a
        # fit would feed effectively infinite weights downstream, so report
        # it as a failure rather than a model.
        message = (
            "fitted probabilities pinned at the clamp bounds; "
            "treatment may be separable from these covariates"
        )
    return ConvergenceError(message, model=model) if message else model


def _loglik(
    p: NDArray[np.float64],
    A: NDArray[np.float64],
    not_A: NDArray[np.float64],
    log_p: NDArray[np.float64],
    log_q: NDArray[np.float64],
    n: int,
) -> list[float]:
    """Bernoulli log likelihood ``sum(A log p + (1 - A) log(1 - p))`` of
    each length-n part of the flat vectors, as a list, through the buffers
    ``log_p`` and ``log_q``.
    Picking each row's log with a select on ``A`` gives the same bits, but
    made the whole fit 15-20% slower at n = 5000 (x86-64, numpy 2.4)."""
    np.multiply(A, np.log(p, out=log_p), out=log_p)
    np.multiply(not_A, np.log1p(np.negative(p, out=log_q), out=log_q), out=log_q)
    return np.add.reduce(np.add(log_p, log_q, out=log_p).reshape(-1, n), axis=1).tolist()


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

    Percentiles use linear interpolation between order statistics, numpy's
    default ``linear`` method: the result is ``np.clip(pi,
    *np.percentile(pi, [lower_pct, upper_pct]))`` to the bit, except that a
    bound of zero may have the other sign when ``pi`` holds both ``0.0`` and
    ``-0.0``, which compare equal. The pair (0, 100) is a no-op apart from
    clipping at the observed min/max.
    """
    _check_percentiles(lower_pct, upper_pct)
    pi = np.asarray(pi, dtype=np.float64)
    return _truncated(pi.reshape(1, -1), lower_pct, upper_pct).reshape(pi.shape)


def _truncated(
    pi: NDArray[np.float64], lower_pct: float, upper_pct: float
) -> NDArray[np.float64]:
    """:func:`truncate_propensity` of each row of the (b, n) stack ``pi``,
    from one sort of the stack, for percentiles already checked.

    The bounds are numpy's ``linear`` percentiles (Hyndman and Fan's type 7)
    computed as ``np.percentile`` computes them: the virtual index
    ``(n - 1) * q``, the order statistics below and above it (the last one
    for an index at or past the end), numpy's lerp of the two and, for a row
    holding a NaN, the NaN that sorts last as both bounds. The sorted order
    statistics are those ``np.percentile`` selects by partitioning, up to
    the sign of a zero, and every step is elementwise, so each row gets the
    bits it gets alone."""
    n = pi.shape[1]
    ordered = np.sort(pi, axis=1)
    last = ordered[:, -1:]
    nan = np.isnan(last)
    bounds = []
    for pct in (lower_pct, upper_pct):
        # np.percentile's arithmetic on Python floats, the same IEEE steps.
        index = (n - 1) * (float(pct) / 100)
        below = above = -1
        if index < n - 1:
            below = math.floor(index)
            above = below + 1
        gamma = index - below
        low, high = ordered[:, below, None], ordered[:, above, None]
        step = high - low
        bound = high - step * (1 - gamma) if gamma >= 0.5 else low + step * gamma
        np.copyto(bound, last, where=nan)
        bounds.append(bound)
    return np.clip(pi, *bounds)


def _check_percentiles(lower_pct: float, upper_pct: float) -> None:
    """Raise ``ValueError`` unless ``0 <= lower_pct < upper_pct <= 100``,
    which NaN fails."""
    if not (0.0 <= lower_pct < upper_pct <= 100.0):
        raise ValueError(
            f"need 0 <= lower < upper <= 100, got ({lower_pct}, {upper_pct})"
        )


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
    fits = _fit_outcomes(_Stack.of(ds), design, inter)
    (error,) = fits.errors
    if error is not None:
        raise error
    beta = fits.beta[0]
    # Only this model keeps the residual variance, from the matrix rebuilt
    # with the observed arm: the stacked fit has switched its arms.
    resid = ds.Y - _outcome_matrix(design, inter, ds.X, ds.A)[0] @ beta
    return OutcomeModel(
        beta=beta,
        main_design=design,
        interaction_design=inter,
        residual_variance=float(resid @ resid / (ds.n - beta.shape[0])),
        m1=fits.m1[0],
        m0=fits.m0[0],
    )


class _OutcomeFits(NamedTuple):
    """The outcome fits of a stack of b replicates: the error each one
    failed with (``None`` for a fit), and the (b, k) coefficients and the
    (b, n) arm means, zero in the rows of the failed fits."""

    errors: list[WateError | None]
    beta: NDArray[np.float64]
    m1: NDArray[np.float64]
    m0: NDArray[np.float64]


def _fit_outcomes(stack: _Stack, main: DesignSpec, inter: DesignSpec) -> _OutcomeFits:
    """:func:`fit_outcome` of ``(main, inter)`` on each replicate of
    ``stack``, as stacked least squares fits of its consecutive parts of
    ``_stack_size(_PART_ROWS, n)`` replicates, joined in replicate order. A
    part is a slice of the stack, which is not checked again."""
    b, n = stack.A.shape
    size = _stack_size(_PART_ROWS, n)
    parts = [_fit_outcome_part(stack, slice(i, i + size), main, inter) for i in range(0, b, size)]
    if len(parts) == 1:
        return parts[0]
    return _OutcomeFits(
        [error for part in parts for error in part.errors],
        *(np.concatenate(arrays) for arrays in zip(*(part[1:] for part in parts))),
    )


def _fit_outcome_part(
    stack: _Stack, part: slice, main: DesignSpec, inter: DesignSpec
) -> _OutcomeFits:
    """The outcome fits of the replicates ``part`` of ``stack``, as one
    stacked least squares fit.

    The model matrices are evaluated once, into one (b, n, k) stack of
    column-major slices, and factored by one stacked reduced QR; each R is
    checked for rank, then the full-rank systems are solved by one stacked
    solve. Both arms' means come from the same stack, its arm columns
    switched in place and copied into a row-major buffer, by one stacked
    ``M @ beta`` each. A stacked QR, solve or matmul computes each slice as
    the 2-D call does, so every replicate gets the bits, or the error, it
    gets alone."""
    X, A = stack.X[part], stack.A[part]
    b, n = A.shape
    kb, ki = len(main), len(inter)
    k = kb + 2 + ki
    M = np.empty((b, k, n)).transpose(0, 2, 1)
    G = M[:, :, 1:kb + 1] if inter == main else np.empty((b, ki, n)).transpose(0, 2, 1)
    errors = _evaluated(lambda i: _outcome_matrix(main, inter, X[i], A[i], M[i], G[i]), b, M, G)
    Y = np.empty((b, n, 1))
    Y[:, :, 0] = stack.Y[part]
    q, r = np.linalg.qr(M)
    qty = q.transpose(0, 2, 1) @ Y
    del q
    no_df = ModelFitError(
        f"outcome model has {k} coefficients for {n} rows; no residual degrees of freedom"
    ) if n - k < 1 else None
    errors = [
        error or rank or no_df
        for error, rank in zip(errors, _rank_errors(M, "outcome design", r))
    ]
    rows = [i for i, error in enumerate(errors) if error is None]
    if len(rows) == b:
        beta = np.linalg.solve(r, qty)
    else:
        beta = np.zeros((b, k, 1))
        if rows:
            beta[rows] = np.linalg.solve(r[rows], qty[rows])
    # Switching the arm in place writes 1*g and 0*g, the bits a matrix
    # rebuilt for each arm would hold. The products read a row-major copy.
    row_major = np.empty((b, n, k))
    _set_arm(M, 1.0, G)
    np.copyto(row_major, M)
    m1 = row_major @ beta
    _set_arm(M, 0.0, G)
    np.copyto(row_major, M)
    m0 = row_major @ beta
    return _OutcomeFits(errors, beta[:, :, 0], m1[:, :, 0], m0[:, :, 0])


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
