"""Working models: logistic regression for the propensity score and ordinary
least squares for the outcome.

Both fitters prepend an intercept to the supplied design and check the
design matrix for numerical rank deficiency. The logistic fit is Newton's
method with step halving; convergence is declared when the largest score
component falls below ``SCORE_TOL``, and the fit fails after ``MAX_ITER``
Newton updates. Every fitted or predicted probability is clamped into
``[PROB_CLAMP, 1 - PROB_CLAMP]`` so inverse weights stay finite. A design
with more columns than rows is refused before it is factored; any other is
rank deficient when its smallest ``|R_jj|`` is at most ``RANK_TOL`` times
its largest. Both fits factor every design, by one QR in place (see
:func:`_qr_checked`): the outcome fit solves through the reduced QR, whose R
also serves the rank check, and the propensity fit computes R alone.

Both fits run over a stack of problems: the study and the bootstrap fit
each working model on a :class:`~wate.data._Stack` of same-n replicates at
once, which pays numpy's fixed cost per call once per stack. There is one
IRLS (:func:`_irls`) and one least squares fit (:func:`_fit_outcomes`), each
on a (b, n, k) stack of model matrices, the least squares fit a part of the
stack at a time (see below). The QR (:func:`_qr`) runs LAPACK on each
slice in turn, and a stacked ``solve`` or ``matmul`` computes each slice as
the 2-D call does, so every problem of a stack gets the bits and the error
it gets alone.

Each returns one stacked result, :class:`_PropensityFits` or
:class:`_OutcomeFits`: per replicate its error or ``None``, and (b, k)
coefficients and (b, n) fitted vectors on the fitting rows, the final IRLS
probabilities or both arms' means, which the pass reads as they are. Model
objects exist only at the public boundary: :func:`fit_propensity` and
:func:`fit_outcome` are stacks of one, made of views of the dataset, that
build a frozen, picklable model from row 0 (``PropensityModel.pi``,
``OutcomeModel.m1``/``m0``) or raise the row's error; a
:class:`ConvergenceError` carries the model of the last iterate. The
vectors are bit-for-bit what :func:`predict_propensity` and
:func:`predict_outcome` return on the fitting rows; predict for any other
rows.

Each design is evaluated once per stack, by one
:meth:`~wate.design.DesignSpec.matrix` call on the (b, n, p) covariates,
straight into one stack of model matrices. A design that raises on the
stack, e.g. a square that overflows in one replicate, is evaluated again
replicate by replicate, only then, so each replicate gets its own error; the
IRLS finds a singular information matrix the same way. Both fits evaluate
into a C-contiguous (b, k, n) array seen as (b, n, k), whose slices are the
Fortran matrices LAPACK factors in place, with ``numpy.linalg.qr``'s
arguments and its bits but without its copies of the input (see
:func:`_qr`). The BLAS products read row-major model matrices, since a
column-major operand changes the bits of ``matmul``. The propensity fit
copies its buffer once into a row-major stack before the buffer is factored
(see :func:`_fit_propensities`); the IRLS reads that copy as it is, or a
copy of its full-rank slices, and the factored buffer is freed before it
starts.
The outcome fit evaluates the arm-1 operand ``[1, f, 1, g]`` and builds
from it, by writes to whole contiguous rows, the observed design ``[1, f,
A, A g]`` in a second buffer, which it factors, and then the arm-0 columns
``0`` and ``0 * g`` in place; it copies the arm-1 operand once into a
row-major stack for ``m1 = M @ beta``, and then only the arm-0 columns
across for ``m0`` (see :func:`_fit_outcome_part`). The Newton steps of
the logistic fit write their weighted design and every vector of the main
path into buffers allocated once per stack, the first weighted design as
the scalar multiple ``0.25 * M``, since every probability is 1/2 before the
first update, and a problem that leaves the stack is dropped by moving the
others' model matrices forward in place (see :func:`_irls`).
None of this changes an element's value or the order of a sum.

The outcome fit's QR is the largest transient of a pass: it holds the arm-1
operand, the observed design factored in place and ``q`` at once, and the
row-major operand is made only once the last two are freed. So
:func:`_fit_outcomes` works through its stack in consecutive parts of
the fewest replicates that hold at least ``_PART_ROWS`` rows,
``max(1, ceil(_PART_ROWS / n))``, ``_PART_ROWS`` being a third of the
stack's ``wate.data._BATCH_ROWS`` (4096 of 12288 rows), each part evaluated,
factored, checked for rank and solved as one stack, and written into its
rows of the one result. A part holds 4096 to 8191 rows up to n = 4096 and
one replicate above it (5000 rows at n = 1000 and at n = 5000), which keeps
the QR's peak at a part's rows rather than a whole stack's: factoring a
whole stack of 8192 rows at once was no faster and raised a study's peak
memory by 1 MB more (n = 1000), and parts of half of 12288 rows, which pair
the replicates at n = 5000, raised the bootstrap's peak by 1.4 MB (3%)
more. The IRLS and the fill, whose fixed
cost per numpy call is what a larger stack saves, take the whole stack.

At bootstrap sizes the n-by-k blocks of a fit (its column-major buffers,
the row-major copy and ``q``) are freed at the end of every fit. By default
glibc hands that memory back to the OS and the next fit faults it in again,
page by page. On
glibc, importing this module therefore raises the mmap threshold to 32 MiB
and the trim threshold to 64 MiB (see :func:`_keep_freed_heap`), so freed
fit blocks stay in the heap for the next fit; a user who sets either
threshold through the environment keeps it.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np
from numpy.linalg import lapack_lite
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
_PART_ROWS = _BATCH_ROWS // 3

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
    m1: NDArray[np.float64] | None = field(default=None, repr=False)
    m0: NDArray[np.float64] | None = field(default=None, repr=False)


def _sigmoid(
    eta: NDArray[np.float64],
    out: NDArray[np.float64] | None = None,
    ex: NDArray[np.float64] | None = None,
) -> NDArray[np.float64]:
    # exp(-|eta|) never overflows; each branch is the textbook piecewise form
    # (1/(1 + e^-eta) for eta >= 0, e^eta/(1 + e^eta) below), bit for bit:
    # the numerator exp(min(eta, 0)) is 1 or exp(-|eta|), divided once. fmin,
    # not minimum, keeps the textbook NaN: it gives 1 for a NaN eta, and the
    # quotient takes the NaN of 1 + exp(-|eta|), not the NaN of eta. The
    # terms are computed in place, into two arrays in all: ``out``, which
    # is returned, and ``ex``, new ones where not given.
    ex = np.abs(eta, out=ex)
    np.exp(np.negative(ex, out=ex), out=ex)
    p = np.fmin(eta, 0.0, out=out)
    np.exp(p, out=p)
    return np.divide(p, np.add(ex, 1.0, out=ex), out=p)


def _clamped_sigmoid(
    eta: NDArray[np.float64],
    out: NDArray[np.float64] | None = None,
    ex: NDArray[np.float64] | None = None,
) -> NDArray[np.float64]:
    p = _sigmoid(eta, out, ex)
    np.maximum(p, PROB_CLAMP, out=p)
    return np.minimum(p, 1.0 - PROB_CLAMP, out=p)


def _rank_errors(r: NDArray[np.float64], what: str) -> list[WateError | None]:
    """For each R factor of the (b, k, k) stack ``r``, ``None`` if its
    matrix has full column rank, else the :class:`RankDeficiencyError`."""
    r_diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    return [
        None if top != 0.0 and low > RANK_TOL * top else RankDeficiencyError(
            f"{what} matrix is numerically rank deficient (min/max |R_jj| = {low:.3e}/{top:.3e})"
        )
        for top, low in zip(r_diag.max(axis=1).tolist(), r_diag.min(axis=1).tolist())
    ]


def _qr(
    F: NDArray[np.float64], with_q: bool = True
) -> tuple[NDArray[np.float64] | None, NDArray[np.float64]]:
    """``numpy.linalg.qr`` of the (b, n, k) stack ``F.transpose(0, 2, 1)``,
    reduced ``(q, r)``, or ``(None, r)`` without ``q``, to the bit; ``F``
    is a C-contiguous (b, k, n) stack, so each slice is the column-major
    n-by-k matrix LAPACK factors, and is overwritten.

    numpy copies its input into a new array and each slice into and out of
    a Fortran buffer of its own; here LAPACK's ``dgeqrf`` and ``dorgqr``
    run on each slice of ``F`` in place, with numpy's leading dimension and
    workspace lengths (see :func:`_qr_work`), so they take numpy's path.
    R is the upper triangle ``np.triu`` reads before ``dorgqr`` forms Q over
    the reflectors, and Q is copied once into a C-contiguous
    (b, n, min(n, k)) array, numpy's layout: a ``q.T @ y`` on Q's
    column-major slices would reach BLAS's ``dgemv`` in the other
    orientation, with other bits.
    """
    b, k, n = F.shape
    mn, lda = min(n, k), max(1, n)
    geqrf, orgqr = _qr_work(n, k)
    tau = np.empty((b, mn))
    work = np.empty(max(geqrf, orgqr))
    for i in range(b):
        _lapack("dgeqrf", n, k, F[i], lda, tau[i], work, geqrf)
    M = F.transpose(0, 2, 1)
    r = np.triu(M[:, :mn, :])
    if not with_q:
        return None, r
    for i in range(b):
        _lapack("dorgqr", n, mn, mn, F[i], lda, tau[i], work, orgqr)
    return np.ascontiguousarray(M[:, :, :mn]), r


@functools.cache
def _qr_work(n: int, k: int) -> tuple[int, int]:
    """The workspace lengths numpy gives ``dgeqrf`` and ``dorgqr`` for a
    reduced QR of an n-by-k matrix: LAPACK's optimum, queried once per
    shape, but at least ``max(1, k)``. LAPACK picks its blocked or
    unblocked path by the length, so the bits follow numpy's only with
    numpy's lengths."""
    mn, lda = min(n, k), max(1, n)
    query, unread = np.zeros(1), np.zeros(1)
    _lapack("dgeqrf", n, k, unread, lda, unread, query, -1)
    geqrf = max(1, k, int(query[0]))
    _lapack("dorgqr", n, mn, mn, unread, lda, unread, query, -1)
    return geqrf, max(1, k, int(query[0]))


def _lapack(routine: str, *args: object) -> None:
    """Call ``routine`` of ``numpy.linalg.lapack_lite``, on the LAPACK
    numpy's own QR links against, and raise ``LinAlgError`` if LAPACK refuses an
    argument, as ``numpy.linalg.qr`` does."""
    info = getattr(lapack_lite, routine)(*args, 0)["info"]
    if info:
        raise np.linalg.LinAlgError(f"{routine} refused argument {-info}")


def _qr_checked(
    M: NDArray[np.float64], errors: list[WateError | None], what: str, with_q: bool
) -> tuple[NDArray[np.float64] | None, NDArray[np.float64] | None, list[WateError | None]]:
    """Factor the model matrices ``M``, the (b, n, k) view of a C-contiguous
    (b, k, n) buffer, in place by ``_qr(..., with_q)``: ``q`` (``None``
    without it), R and ``errors``, the evaluation errors, with each
    matrix's rank error added (see :func:`_rank_errors`). A design with more
    columns than rows is refused and nothing is factored; ``q`` and R are
    then ``None``."""
    b, n, k = M.shape
    if n < k:
        wide = RankDeficiencyError(f"{what}: {k} columns but only {n} rows")
        return None, None, [error or wide for error in errors]
    q, r = _qr(M.transpose(0, 2, 1), with_q=with_q)
    return q, r, [error or rank for error, rank in zip(errors, _rank_errors(r, what))]


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
    arm: float,
    out: NDArray[np.float64] | None = None,
) -> NDArray[np.float64]:
    """``[1, main(X), arm, arm * inter(X)]``, the one layout of the outcome
    model's columns for fitting and for predicting, evaluated into ``out``
    when given, in either memory order; of each replicate for a (b, n, p)
    stack. Equal designs are evaluated once, the interaction block written
    as ``arm`` times the main block; a distinct interaction design is
    evaluated straight into its block and scaled there. The fit evaluates
    its arm-1 operand this way (see :func:`_fit_outcome_part`)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    kb = len(main)
    M = np.empty((*X.shape[:-1], kb + 2 + len(inter))) if out is None else out
    M[..., 0] = 1.0
    main.matrix(X, out=M[..., 1:kb + 1])
    g = M[..., 1:kb + 1] if inter == main else inter.matrix(X, out=M[..., kb + 2:])
    _set_arm(M, arm, g)
    return M


def _set_arm(
    M: NDArray[np.float64], arm: NDArray[np.float64] | float, g: NDArray[np.float64]
) -> None:
    """Overwrite the arm column of an outcome model matrix, or of a stack of
    them, and the interaction block after it with ``arm`` and ``arm * g``;
    ``g`` may be that block itself. On the outcome fit's column-major
    stacks, the (b, n, k) views of C-contiguous (b, k, n) buffers, it writes
    whole contiguous rows of the buffer."""
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
    fits = _fit_propensities(_Stack.of(ds), design)
    (error,) = fits.errors
    model = PropensityModel(
        alpha=fits.alpha[0], design=design, converged=error is None,
        iterations=fits.iterations[0], log_likelihood=fits.log_likelihood[0], pi=fits.pi[0],
    )
    if isinstance(error, ConvergenceError):
        error.model = model
    if error is not None:
        raise error
    return model


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


class _PropensityFits(NamedTuple):
    """The propensity fits of a stack of b replicates: the error each one
    failed with (``None`` for a fit), and each one's last iterate, as the
    (b, k) coefficients, the (b, n) clamped probabilities, the log
    likelihoods and the update counts, zero in the rows of the designs that
    failed before the IRLS."""

    errors: list[WateError | None]
    alpha: NDArray[np.float64]
    pi: NDArray[np.float64]
    log_likelihood: list[float]
    iterations: list[int]


def _fit_propensities(stack: _Stack, design: DesignSpec) -> _PropensityFits:
    """:func:`fit_propensity` of ``design`` on each replicate of ``stack``.
    The design is evaluated once, into one stack of column-major model
    matrices, which is copied once into the row-major stack the IRLS reads
    and then factored in place by :func:`_qr_checked` for the rank check;
    the full-rank designs are fitted by one stacked IRLS, which reads that
    copy itself when every design is one. The factored buffer is freed
    before the IRLS starts."""
    X, A = stack.X, stack.A
    b, n = A.shape
    k = len(design) + 1
    F = np.empty((b, k, n)).transpose(0, 2, 1)
    errors = _evaluated(lambda i: _design_matrix(design, X[i], F[i]), b, F)
    M = np.empty((b, n, k))
    np.copyto(M, F)
    _, _, errors = _qr_checked(F, errors, "propensity design", with_q=False)
    del F
    fits = _PropensityFits(errors, np.zeros((b, k)), np.zeros((b, n)), [0.0] * b, [0] * b)
    rows = [i for i, error in enumerate(fits.errors) if error is None]
    if rows:
        if len(rows) < b:
            M, A = M[rows], A[rows]
        _irls(M, A, fits, rows)
    return fits


def _irls(
    M: NDArray[np.float64], A: NDArray[np.float64], fits: _PropensityFits, ids: list[int]
) -> None:
    """Newton's method with step halving on each problem of a stack: ``M``
    is a C-contiguous (b, n, k) stack of model matrices, ``A`` the (b, n)
    stack of treatments, and problem j is written to row ``ids[j]`` of
    ``fits`` as it leaves the stack.

    Every problem runs the sequence of a fit on its own: the score test, the
    ``MAX_ITER`` stop, the solve, and its own full step followed by at most
    49 halvings, on bits equal to those of the 2-D calls, since a stacked
    ``matmul`` or ``linalg.solve`` computes each slice as the 2-D call does
    and a row sum of a C-contiguous block sums the row as a vector sum does.
    Problems start together, so they share the update count. A step is kept
    once its log likelihood is at most ``max(1e-12, 2 ulp(ll))`` below the
    current ``ll``: with the fixed 1e-12 alone, which one rounding of ``ll``
    exceeds once ``|ll| >= 8192``, a fit near its optimum refused every step
    and stalled short of ``SCORE_TOL``. Below ``|ll| = 4096`` the slack is
    1e-12.

    A problem that converges or fails leaves at the top of the loop, where
    the stack is compacted, and the others start their update again from
    the same bits. The solve is repeated slice by slice only when some
    information matrix is singular, to find which. A converged fit whose
    probabilities reach a clamp bound fails: that check is one row min/max
    of the whole ``pi`` stack, read for the converged fits.

    The stack's length-n vectors are kept end to end in one flat array:
    numpy's fixed cost per call is lower on 1-D arrays, and elementwise
    arithmetic gives the same bits in either shape. Each update writes its
    vectors into buffers made once per stack, of which a shrunken stack
    uses the leading part: the weighted design; two scratch vectors, which
    hold in turn the score residual ``A - p``, the weights ``p(1 - p)`` and
    ``M @ cand`` (the first), the sigmoid's ``exp(-|eta|)`` (the second) and
    the log likelihood's two terms (both); and the candidate probabilities,
    written over the probabilities before the last update, the two buffers
    swapping at each update. Before the first update every ``p`` is exactly
    1/2 and every weight ``p(1 - p)`` exactly 1/4, so that update weights
    the design by the scalar 0.25: the bits of the broadcast weight vector,
    in 21 against 123 us at (3, 5000, 6) (x86-64). A problem that leaves
    before it leaves the others at that update. Only the step halving
    allocates its own. A problem that leaves is dropped by moving the
    remaining problems' model matrices forward in ``M``, which the fit owns
    and overwrites; ``A``, a view of the stack, is never written, and it and
    the other vectors are taken by index.
    """
    b, n, k = M.shape
    # Each problem's row in fits (ids) and its log likelihood are Python
    # values: a comparison per problem costs less than a numpy call per stack.
    A = A.reshape(-1)
    not_A = 1.0 - A
    weighted = np.empty_like(M)
    scratch, p_next = np.empty((2, b * n)), np.empty(b * n)

    alpha = np.zeros((b, k, 1))
    # The probabilities at alpha = 0: M is finite, so M @ alpha is +-0 and
    # its clamped sigmoid exactly 1/2.
    p = np.full(b * n, 0.5)
    ll = _loglik(p, A, not_A, *scratch, n)
    updates = 0
    # The problems leaving the stack, with their error messages ("" for a
    # fit that converged).
    exits: dict[int, str] = {}
    while True:
        if exits:
            out, leaving = [ids[j] for j in exits], list(exits)
            fits.alpha[out] = alpha[leaving, :, 0]
            fits.pi[out] = p.reshape(-1, n)[leaving]
            for i, j in zip(out, leaving):
                if exits[j]:
                    fits.errors[i] = ConvergenceError(exits[j])
                fits.log_likelihood[i], fits.iterations[i] = ll[j], updates
            keep = [j for j in range(len(ids)) if j not in exits]
            if not keep:
                break
            ids, ll = [ids[j] for j in keep], [ll[j] for j in keep]
            # M[keep] would be a second stack of model matrices.
            for i, j in enumerate(keep):
                if i < j:
                    M[i] = M[j]
            M, alpha = M[:len(keep)], alpha[keep]
            A, not_A, p = (x.reshape(-1, n)[keep].reshape(-1) for x in (A, not_A, p))
        m = len(ids)
        s1, s2 = scratch[:, :m * n]
        score = M.transpose(0, 2, 1) @ np.subtract(A, p, out=s1).reshape(m, n, 1)
        top = np.maximum.reduce(np.abs(score[:, :, 0]), axis=1).tolist()
        exits = {
            j: "" if t < SCORE_TOL else f"propensity fit did not converge in {MAX_ITER} "
            f"updates (max |score| = {t:.3e})"
            for j, t in enumerate(top) if t < SCORE_TOL or updates >= MAX_ITER
        }
        if exits:
            continue
        if updates:
            w = np.multiply(p, np.subtract(1.0, p, out=s1), out=s1)
            wM = np.multiply(M, w.reshape(m, n, 1), out=weighted[:m])
        else:
            # Every p is exactly 1/2 until the first update.
            wM = np.multiply(M, 0.25, out=weighted[:m])
        hessian = wM.transpose(0, 2, 1) @ M
        try:
            delta = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError:
            # A slice that fails the stacked solve fails alone too, so at
            # least one problem leaves before the update starts again.
            for j in range(m):
                try:
                    np.linalg.solve(hessian[j], score[j])
                except np.linalg.LinAlgError:
                    exits[j] = (
                        f"singular information matrix during propensity fit (after "
                        f"{updates} updates)"
                    )
            continue
        # Halve each problem's step until its log likelihood stops
        # decreasing, to within the slack; Newton's direction is an ascent
        # direction, so this terminates. The problems still halving have
        # halved equally often.
        floor = [v - max(1e-12, 2 * math.ulp(v)) for v in ll]
        cand = alpha + delta
        eta = np.matmul(M, cand, out=s1.reshape(m, n, 1))
        p_cand = _clamped_sigmoid(eta.reshape(-1), p_next[:m * n], s2)
        ll_cand = _loglik(p_cand, A, not_A, s1, s2, n)
        halving = [j for j in range(m) if not ll_cand[j] >= floor[j]]
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
            halving = [j for j, value in zip(halving, lc) if not value >= floor[j]]
        alpha, p, p_next, ll = cand, p_cand, p, ll_cand
        updates += 1
    # The score can vanish with fitted probabilities stuck at the clamp
    # bounds, which is how separated data present themselves here. Such a
    # fit would feed effectively infinite weights downstream, so report it
    # as a failure rather than a model.
    pinned = (fits.pi.min(axis=1) <= PROB_CLAMP) | (fits.pi.max(axis=1) >= 1.0 - PROB_CLAMP)
    for i in np.flatnonzero(pinned).tolist():
        if fits.errors[i] is None:
            fits.errors[i] = ConvergenceError(
                "fitted probabilities pinned at the clamp bounds; "
                "treatment may be separable from these covariates"
            )


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
    clipping at the observed min/max. An empty ``pi`` has no percentiles and
    raises ``ValueError``.
    """
    _check_percentiles(lower_pct, upper_pct)
    pi = np.asarray(pi, dtype=np.float64)
    if pi.size == 0:
        raise ValueError("cannot truncate an empty propensity vector")
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
    treatment interaction. The fit requires at least one residual degree of
    freedom, n - k >= 1 for k coefficients.
    """
    inter = design if interaction is None else interaction
    fits = _fit_outcomes(_Stack.of(ds), design, inter)
    (error,) = fits.errors
    if error is not None:
        raise error
    return OutcomeModel(
        beta=fits.beta[0],
        main_design=design,
        interaction_design=inter,
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
    ``_stack_size(_PART_ROWS, n)`` replicates, each written into its rows
    of one result. A part is a slice of the stack."""
    b, n = stack.A.shape
    k = len(main) + 2 + len(inter)
    fits = _OutcomeFits([None] * b, np.empty((b, k)), np.empty((b, n)), np.empty((b, n)))
    size = _stack_size(_PART_ROWS, n)
    for i in range(0, b, size):
        _fit_outcome_part(stack, slice(i, i + size), main, inter, fits)
    return fits


def _fit_outcome_part(
    stack: _Stack, part: slice, main: DesignSpec, inter: DesignSpec, fits: _OutcomeFits
) -> None:
    """The outcome fits of the replicates ``part`` of ``stack``, as one
    stacked least squares fit, written into the rows ``part`` of ``fits``.

    The model matrices are evaluated once, as the arm-1 operand ``[1, f, 1,
    g]``, into one stack of column-major slices, the (b, n, k) view of a
    C-contiguous (b, k, n) buffer, and the observed design ``[1, f, A, A
    g]`` is built from it by contiguous writes into a second such buffer,
    which :func:`_qr_checked` factors in place, checking each R for rank;
    the full-rank systems are solved by one stacked solve. The arm-1 operand
    is then copied once into a row-major stack for ``m1 = M @ beta``; the
    arm-0 columns ``0`` and ``0 * g``, written into its own rows and copied
    across, give ``m0``. Every operand holds the values, and has the layout,
    of the matrix rebuilt for its own arm, and LAPACK's QR and a stacked
    solve or matmul compute each slice as the 2-D call does, so every
    replicate gets the bits, or the error, it gets alone."""
    X, A = stack.X[part], stack.A[part]
    b, n = A.shape
    kb = len(main)
    k = kb + 2 + len(inter)
    F = np.empty((b, k, n)).transpose(0, 2, 1)
    errors = _evaluated(lambda i: _outcome_matrix(main, inter, X[i], 1.0, F[i]), b, F)
    g = F[:, :, kb + 2:]
    observed = np.empty((b, k, n)).transpose(0, 2, 1)
    np.copyto(observed[:, :, :kb + 1], F[:, :, :kb + 1])
    _set_arm(observed, A, g)
    q, r, errors = _qr_checked(observed, errors, "outcome design", with_q=True)
    del observed
    no_df = ModelFitError(
        f"outcome model has {k} coefficients for {n} rows; no residual degrees of freedom"
    ) if n - k < 1 else None
    errors = [error or no_df for error in errors]
    rows = [i for i, error in enumerate(errors) if error is None]
    beta = np.zeros((b, k, 1))
    if rows:
        Y = np.empty((b, n, 1))
        Y[:, :, 0] = stack.Y[part]
        qty = q.transpose(0, 2, 1) @ Y
        beta[rows] = np.linalg.solve(r[rows], qty[rows])
    # The row-major stack is made once the observed design and q are freed,
    # so a part holds at most three n-by-k blocks at once.
    del q
    M = np.empty((b, n, k))
    np.copyto(M, F)
    m1 = M @ beta
    # 0 and 0 * g over 1 and g: the bits a matrix rebuilt for arm 0 holds.
    _set_arm(F, 0.0, g)
    M[:, :, kb + 1:] = F[:, :, kb + 1:]
    m0 = M @ beta
    fits.errors[part] = errors
    fits.beta[part], fits.m1[part], fits.m0[part] = beta[:, :, 0], m1[:, :, 0], m0[:, :, 0]


def predict_outcome(
    model: OutcomeModel, X: NDArray[np.float64], a: int
) -> NDArray[np.float64]:
    """Model mean outcome had everyone received arm ``a`` (0 or 1)."""
    if a not in (0, 1):
        raise ValueError(f"arm must be 0 or 1, got {a!r}")
    M = _outcome_matrix(model.main_design, model.interaction_design, X, float(a))
    if M.shape[1] != model.beta.shape[0]:
        raise ModelFitError(
            f"design evaluates to {M.shape[1]} columns but the model has "
            f"{model.beta.shape[0]} coefficients"
        )
    return M @ model.beta
