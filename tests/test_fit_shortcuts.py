"""The fits' shortcuts give the decisions and the bits of the paths they skip.

* Both fits factor every design in place, R alone for the propensity
  fit, and take each rank decision and message from numpy.linalg.qr's R;
  a design wider than its rows is refused before any factoring.
* Truncation sorts a stack of propensity vectors once and computes numpy's
  ``linear`` percentiles from it; each row gets the bits of
  ``np.clip(pi, *np.percentile(pi, [lo, hi]))``.
* A linear factor of a monomial is the covariate column itself, the bits of
  ``x ** 1``.
* Every propensity fit that succeeds lies strictly inside the clamp bounds,
  before and after truncation, so the fill reads it unchecked.
* The fast forms of the pass give the bits of the forms they replace: the
  sigmoid's ``exp(fmin(eta, 0))`` numerator those of the textbook select,
  the study's masked ``putmask`` those of a select of ``y0 + effect``, and
  the IRLS's products and sigmoid written into its buffers those of the
  calls that allocate, and its first update's weighting by the constant 1/4
  that of the broadcast weights; the IRLS fits the one row-major copy of
  the designs, and the traced peak of a propensity fit, of its IRLS alone
  too, stays within 2k + 10 vectors per row.
* The fits' QR, LAPACK run in place on a column-major buffer, gives
  ``numpy.linalg.qr``'s q, R and ``q.T @ y``, and no fit calls numpy's.
* The outcome fit builds its observed design and both arm operands from one
  column-major arm-1 operand: its coefficients are those of
  ``numpy.linalg.qr`` of the observed design, each arm's means those of the
  model matrix rebuilt for that arm, the arm-0 operand holds the signed
  zeros of the matrix rebuilt for arm 0, and the traced peak of a part
  stays within 3k + 2 vectors per row.

Their decisions must not depend on the BLAS kernel or thread count, so CI
runs this file under two BLAS threads and another OpenBLAS kernel too.
"""

import tracemalloc

import numpy as np
import pytest

import wate
from wate.design import MonomialTerm, intercept_only
from wate.data import _Stack, _replicate_rng
from wate.models import (
    PROB_CLAMP,
    _OutcomeFits,
    _clamped_sigmoid,
    _fit_outcome_part,
    _fit_outcomes,
    _fit_propensities,
    _outcome_matrix,
    _qr,
    _qr_checked,
    _rank_errors,
    _sigmoid,
    _truncated,
    truncate_propensity,
)
from wate.simulation import (
    SimulationDesign,
    _replicate_values,
    generate_dataset,
    outcome_design,
    propensity_design,
)

from test_stacking import _one_covariate, _record, _stacked, _study_draw


def _column_major(*matrices):
    """The (n, k) matrices as one stack of column-major slices, the layout
    both fits evaluate their designs into: the (b, n, k) view of a
    C-contiguous (b, k, n) buffer."""
    b = len(matrices)
    n, k = matrices[0].shape
    M = np.empty((b, k, n)).transpose(0, 2, 1)
    M[...] = matrices
    return M


def _described(errors):
    return [None if e is None else (type(e).__name__, str(e)) for e in errors]


def _by_qr(M, what):
    """The rank check on numpy.linalg.qr's R of the row-major stack."""
    return _described(_rank_errors(np.linalg.qr(M, mode="r"), what))


def _qr_calls(monkeypatch):
    """Record the number of matrices each call of the fits' QR factors, by
    mode: "reduced" when it forms q too, "r" for R alone."""
    calls = []
    qr = wate.models._qr

    def recording_qr(F, with_q=True):
        calls.append(("reduced" if with_q else "r", len(F)))
        return qr(F, with_q)

    monkeypatch.setattr(wate.models, "_qr", recording_qr)
    return calls


def test_the_rank_check_agrees_with_numpys_qr_on_every_conditioning():
    # 400 designs at n = 30 with k = 4 columns, each scaled by 10**e for e
    # in [-9, 9], a fifth of them with a column repeated up to 1e-12: from
    # well conditioned to rank deficient. The fits' path, R alone from the
    # column-major slices factored in place, decides as numpy.linalg.qr's R
    # of the row-major stack does.
    rng = np.random.default_rng(11)
    M = rng.standard_normal((400, 30, 4))
    M *= 10.0 ** rng.uniform(-9, 9, (400, 1, 4))
    near = rng.random(400) < 0.2
    M[near, :, 3] = M[near, :, 0] * (1 + 1e-12 * rng.standard_normal((near.sum(), 30)))
    q, _, errors = _qr_checked(_column_major(*M), [None] * 400, "design", False)
    assert q is None
    assert _described(errors) == _by_qr(M, "design")
    assert 0 < sum(e is not None for e in errors) < 400


def test_a_design_wider_than_its_rows_is_refused_before_any_factoring(monkeypatch):
    # Three rows for the propensity design's 4 columns and the outcome
    # design's 8: both fits refuse every replicate without calling the QR.
    rng = np.random.default_rng(47)
    A = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    stack = _Stack(rng.standard_normal((2, 3, 3)), A, rng.standard_normal((2, 3)))
    design = wate.main_effects(("x1", "x2", "x3"))
    calls = _qr_calls(monkeypatch)
    assert _described(_fit_propensities(stack, design).errors) == [
        ("RankDeficiencyError", "propensity design: 4 columns but only 3 rows")
    ] * 2
    assert _described(_fit_outcomes(stack, design, design).errors) == [
        ("RankDeficiencyError", "outcome design: 8 columns but only 3 rows")
    ] * 2
    assert calls == []


def test_the_bootstrap_factors_each_design_once_in_place(monkeypatch):
    # The boot-fit shape: the effect on the treated by AIPW with main
    # effects, truncation at (1, 99), n = 5000 and 50 refits in stacks of
    # 3, the last of 2. Each of the 51 fits factors its propensity design
    # for R alone, a stack at a time, and its outcome design for the
    # reduced QR, one replicate per part.
    ds = generate_dataset(1, 5000, np.random.default_rng(3))
    names = ds.covariate_names
    pipeline = wate.EstimationPipeline(
        estimand=wate.effect_on_treated(),
        kind=wate.EstimatorKind.AIPW,
        pi_design=wate.main_effects(names),
        m_design=wate.main_effects(names),
        truncate=(1.0, 99.0),
    )
    calls = _qr_calls(monkeypatch)
    monkeypatch.setattr(np.linalg, "qr", None)  # no fit calls numpy's QR
    result = wate.bootstrap_se(ds, pipeline, b=50, seed=0, workers=1)
    assert result.b_ok == 50
    assert [size for mode, size in calls if mode == "r"] == [1] + [3] * 16 + [2]
    assert [size for mode, size in calls if mode == "reduced"] == [1] * 51


# --- truncation ------------------------------------------------------------


def _oracle(pi, lo, hi):
    return np.clip(pi, *np.percentile(pi, [lo, hi]))


_PAIRS = [(0.0, 100.0), (1.0, 99.0), (1, 99), (2.5, 97.5), (10.0, 90.0), (25.0, 50.5),
          (100 / 3, 200 / 3), (0.0, 12.5), (87.5, 100.0)]


def test_truncation_is_numpys_percentile_clip_to_the_bit():
    # 4000 vectors of 1 to 60 values, continuous or with many ties, at
    # percentile pairs whose virtual indices are integral, halfway between
    # order statistics (gamma = 0.5, e.g. n = 5 at 12.5 and 87.5), or
    # anywhere, including the pair (0, 100).
    rng = np.random.default_rng(7)
    for case in range(4000):
        n = int(rng.integers(1, 61))
        pi = rng.random(n) if case % 2 else rng.integers(1, 5, n) / 5.0
        lo, hi = _PAIRS[case % len(_PAIRS)]
        assert truncate_propensity(pi, lo, hi).tobytes() == _oracle(pi, lo, hi).tobytes()


@pytest.mark.parametrize("pi", [[0.3], [0.7, 0.2], [0.2, 0.7], [0.4, 0.4]])
@pytest.mark.parametrize("lo, hi", [(0.0, 100.0), (1.0, 99.0), (50.0, 100.0), (25.0, 75.0)])
def test_truncation_of_one_or_two_values(pi, lo, hi):
    pi = np.array(pi)
    assert truncate_propensity(pi, lo, hi).tobytes() == _oracle(pi, lo, hi).tobytes()


@pytest.mark.parametrize("n, lo, hi", [(101, 1.0, 99.0), (5, 25.0, 75.0), (5, 12.5, 87.5),
                                       (3, 25.0, 75.0)])
def test_truncation_at_integral_and_halfway_virtual_indices(n, lo, hi):
    # (n - 1) q is 1 and 99, 1 and 3, 0.5 and 3.5, 0.5 and 1.5.
    pi = np.random.default_rng(n).random(n)
    assert truncate_propensity(pi, lo, hi).tobytes() == _oracle(pi, lo, hi).tobytes()


@pytest.mark.parametrize("lo, hi", _PAIRS)
def test_a_nan_propensity_makes_every_value_nan(lo, hi):
    # Also when neither bound's order statistics reach the NaN, sorted last.
    pi = np.array([0.2, np.nan, 0.6, 0.4, 0.3])
    out = truncate_propensity(pi, lo, hi)
    assert np.isnan(out).all()
    assert out.tobytes() == _oracle(pi, lo, hi).tobytes()


def test_each_row_of_a_stack_is_truncated_as_it_is_alone():
    # Rows of random values, of ties, of one constant and with a NaN.
    rng = np.random.default_rng(19)
    pi = rng.random((6, 40))
    pi[1] = rng.integers(1, 4, 40) / 4.0
    pi[2] = 0.5
    pi[4, 9] = np.nan
    for lo, hi in _PAIRS:
        stacked = _truncated(pi, lo, hi)
        assert [row.tobytes() for row in stacked] == [
            truncate_propensity(row, lo, hi).tobytes() for row in pi
        ]


# --- the range of a fitted propensity ------------------------------------


def test_a_fitted_propensity_lies_strictly_inside_the_clamp_bounds():
    # 400 stacks of 1 to 5 replicates at n = 8 to 79 with 1 to 3 main
    # effects, each column scaled by 10**e for e in [-3, 6], a third of them
    # rounded to integers, and a treatment from the first column plus noise
    # from 1e-4 to 10 times its scale: from overlapping to separable arms.
    # Each fit that succeeds has every value strictly inside (PROB_CLAMP,
    # 1 - PROB_CLAMP), also once truncated at random percentiles; a fit
    # pinned at a bound is an error.
    rng = np.random.default_rng(23)
    clean = pinned = 0
    for case in range(400):
        b, n, p = int(rng.integers(1, 6)), int(rng.integers(8, 80)), int(rng.integers(1, 4))
        Z = rng.standard_normal((b, n, p))
        X = Z * 10.0 ** rng.uniform(-3, 6, (b, 1, p))
        if case % 3 == 0:
            X = np.round(X)
        noise = 10.0 ** rng.uniform(-4, 1) * rng.standard_normal((b, n))
        A = (Z[:, :, 0] + noise > rng.uniform(-0.5, 0.5)).astype(np.float64)
        design = wate.main_effects([f"x{j + 1}" for j in range(p)])
        fits = _fit_propensities(_Stack(X, A, np.zeros((b, n))), design)
        lo, hi = rng.uniform(0, 50), rng.uniform(50, 100)
        for pi, error in zip(fits.pi, fits.errors):
            pinned += "pinned at the clamp bounds" in str(error)
            if error is None:
                clean += 1
                for values in (pi, _truncated(pi[None], lo, hi)[0]):
                    assert ((values > PROB_CLAMP) & (values < 1.0 - PROB_CLAMP)).all()
    assert clean > 100 and pinned > 100, (clean, pinned)


# --- monomials -------------------------------------------------------------


def test_a_linear_factor_is_the_column_itself():
    X = np.random.default_rng(5).standard_normal((30, 3)) * 1e154
    X[3, 0], X[4, 1], X[5, 2] = -0.0, np.nan, np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for powers in (((0, 1),), ((0, 1), (2, 1)), ((1, 2), (2, 1)), ((0, 1), (1, 3))):
            expected = np.prod([X[:, c] ** e for c, e in powers], axis=0)
            assert MonomialTerm("t", powers)(X).tobytes() == expected.tobytes()


# --- fast forms ------------------------------------------------------------


def _textbook_sigmoid(eta):
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


def test_the_sigmoid_is_the_textbook_select_to_the_bit():
    # Signed zeros, infinities and NaNs, exp's overflow and underflow edges,
    # the largest and the smallest doubles, then 10^5 values at scales from
    # 1e-3 to 1e2; every prefix up to 40 values too, for the vector loops'
    # tails. A NaN must come out as the textbook's NaN, sign included.
    rng = np.random.default_rng(29)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0),
               745.2, -745.2, 1e308, -1e308, 5e-324, -5e-324]
    values = rng.standard_normal(10**5) * 10.0 ** rng.uniform(-3, 2, 10**5)
    eta = np.concatenate([special, values])
    for m in (*range(1, 41), eta.size):
        assert _sigmoid(eta[:m]).tobytes() == _textbook_sigmoid(eta[:m]).tobytes()


@pytest.mark.parametrize("outcome_model", [1, 2])
def test_the_study_adds_the_effect_with_the_bits_of_a_select(monkeypatch, outcome_model):
    # Each replicate's observed outcome in the study's stack is the one
    # generate_dataset selects, np.where(A == 1.0, y0 + effect, y0).
    design = SimulationDesign(outcome_model=outcome_model, n=300, seed=31)
    stacks = []
    monkeypatch.setattr(
        wate.simulation, "_cell_value_rows", lambda stack, plan: stacks.append(stack) or []
    )
    _replicate_values(design, None, range(4, 13))
    (stack,) = stacks
    for rep, Y in zip(range(4, 13), stack.Y):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=31, spawn_key=(rep,)))
        assert Y.tobytes() == generate_dataset(outcome_model, 300, rng).Y.tobytes()


def test_the_irls_fits_the_one_row_major_copy_of_the_designs(monkeypatch):
    # The designs are evaluated into column-major slices, which are copied
    # once into the row-major stack the IRLS reads and then factored in
    # place. When every design has full rank, the IRLS reads that copy
    # itself, not a second copy of it: when it starts, the one live block of
    # model matrices is a block that was live, beside the buffer, when the
    # buffer was factored; the factored buffer is freed.
    evaluated, factored, fitted = [], [], []
    design_matrix, qr_checked, irls = (
        wate.models._design_matrix, wate.models._qr_checked, wate.models._irls
    )

    def address(M):
        return M.__array_interface__["data"][0]

    def live_blocks(M):
        """Where each traced block of M's size was allocated."""
        return [str(t.traceback) for t in tracemalloc.take_snapshot().traces if t.size == M.nbytes]

    def recording_design_matrix(design, X, out=None):
        evaluated.append(
            (address(out), [m.flags.f_contiguous and not m.flags.c_contiguous for m in out])
        )
        return design_matrix(design, X, out)

    def recording_qr_checked(M, *args, **kwargs):
        factored.append((address(M), live_blocks(M)))
        return qr_checked(M, *args, **kwargs)

    def recording_irls(M, *args):
        live = live_blocks(M)
        fitted.append((M.copy(), M.flags.c_contiguous, address(M), live))
        return irls(M, *args)

    monkeypatch.setattr(wate.models, "_design_matrix", recording_design_matrix)
    monkeypatch.setattr(wate.models, "_qr_checked", recording_qr_checked)
    monkeypatch.setattr(wate.models, "_irls", recording_irls)
    data = [generate_dataset(1, 200, np.random.default_rng(seed)) for seed in range(3)]
    stack = _Stack(*(np.stack([getattr(ds, a) for ds in data]) for a in "XAY"))
    design = propensity_design(True)
    tracemalloc.start()
    try:
        fits = _fit_propensities(stack, design)
    finally:
        tracemalloc.stop()
    assert fits.errors == [None] * 3
    ((out, column_major),), ((buffer, at_qr),), ((M, row_major, copy, at_irls),) = (
        evaluated, factored, fitted
    )
    assert all(column_major) and buffer == out != copy
    assert len(at_qr) == 2 and len(at_irls) == 1 and at_irls[0] in at_qr
    assert row_major and M.tobytes() == np.stack([design_matrix(design, ds.X) for ds in data]).tobytes()


def test_the_irls_buffers_give_the_bits_of_the_calls_that_allocate():
    # The IRLS writes M @ cand and its clamped sigmoid into the leading part
    # of flat buffers made for the whole stack, which hold stale values; each
    # must give the bits of the call that allocates, at stack and row counts
    # that leave vector loop tails. The sigmoid's eta takes special values
    # and logits from 1e-3 to 1e3 in size.
    rng = np.random.default_rng(37)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.2, -745.2, 40.0, -40.0]
    for m, n, k in ((1, 7, 2), (3, 1000, 6), (4, 33, 4), (13, 1000, 6)):
        M = rng.standard_normal((m, n, k)) * 10.0 ** rng.uniform(-1, 1, (m, 1, k))
        cand = rng.standard_normal((m, k, 1))
        scratch = np.full((2, (m + 2) * n), np.nan)
        s1, s2 = scratch[:, :m * n]
        eta = np.matmul(M, cand, out=s1.reshape(m, n, 1))
        assert np.shares_memory(eta, s1) and eta.tobytes() == (M @ cand).tobytes()
        values = eta.reshape(-1) * 10.0 ** rng.uniform(-3, 3, m * n)
        values[:len(special)] = special[:m * n]
        expected = _clamped_sigmoid(values)
        out = np.full((m + 1) * n, np.nan)[:m * n]
        p = _clamped_sigmoid(values, out, s2)
        assert p is out and p.tobytes() == expected.tobytes()
        assert _sigmoid(values, out, s2).tobytes() == _sigmoid(values).tobytes()


def test_the_first_update_weights_by_a_quarter_with_the_bits_of_the_broadcast():
    # Before the first update every p is exactly 1/2, and the IRLS weights
    # its design by the scalar 1/4 instead of the (b, n, 1) broadcast of
    # p(1 - p). The products must agree byte for byte on signed zeros,
    # subnormals (whose quarter rounds), infinities and NaNs, at shapes
    # that leave vector loop tails.
    rng = np.random.default_rng(41)
    special = [0.0, -0.0, 5e-324, -5e-324, 3e-323, 2.2e-308, -1.5e-308, np.inf, -np.inf,
               np.nan, 1e308, -1e308]
    for m, n, k in ((1, 7, 2), (3, 5000, 6), (4, 33, 4), (13, 1000, 6)):
        M = rng.standard_normal((m, n, k)) * 10.0 ** rng.uniform(-300, 300, (m, n, k))
        M.reshape(-1)[:len(special)] = special
        p = np.full(m * n, 0.5)
        w = np.multiply(p, np.subtract(1.0, p))
        out = np.full((m + 1, n, k), np.nan)[:m]
        quarter = np.multiply(M, 0.25, out=out)
        assert quarter is out and quarter.tobytes() == (M * w.reshape(m, n, 1)).tobytes()


def test_a_singular_exit_before_the_first_update_leaves_the_others_their_bits():
    # x = 2^28 + (0, 1 or 2): the QR rank check passes the design, but at
    # alpha = 0 a pivot of its information matrix cancels to exactly zero,
    # so that problem leaves the stack before the first update. The others
    # start their first update again, still weighted by 1/4, and each gets
    # the bits it gets alone.
    rng = np.random.default_rng(43)
    singular = _one_covariate(
        2.0**28 + np.array([0, 2, 1, 0, 0, 1, 2, 1, 2], dtype=np.float64),
        np.array([1, 0, 1, 1, 1, 1, 0, 1, 1], dtype=np.float64),
    )
    a = np.array([0, 1, 1, 0, 1, 0, 0, 1, 0], dtype=np.float64)
    others = [_one_covariate(rng.standard_normal(9), a) for _ in range(3)]
    design = wate.main_effects(("x1",))
    stack = [others[0], singular, others[1], others[2]]
    alone = [_record(_fit_propensities(_stacked([ds]), design), 0) for ds in stack]
    assert alone[1][0] == (
        "ConvergenceError", "singular information matrix during propensity fit (after 0 updates)"
    )
    assert all(alone[i][0] is None and alone[i][4] > 0 for i in (0, 2, 3))
    fits = _fit_propensities(_stacked(stack), design)
    assert [_record(fits, i) for i in range(4)] == alone


def test_the_irls_peak_stays_within_2k_plus_10_vectors_per_row():
    # The study's first stack at n = 1000 under the misspecified design (k =
    # 6): its problems leave the IRLS after 4 and 5 updates, so the stack is
    # compacted once. The fit's traced peak, its model matrices, weighted
    # design, buffers and result included, stays within 2k + 10 length-(b n)
    # vectors; copying the staying problems' model matrices, or allocating
    # each update's vectors, goes past it.
    data, design = _study_draw()
    stack = _stacked(data)
    b, n = stack.A.shape
    k = len(design) + 1
    tracemalloc.start()
    try:
        fits = _fit_propensities(stack, design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fits.errors == [None] * b and set(fits.iterations) == {4, 5}
    assert peak <= (2 * k + 10) * 8 * b * n, peak / (8 * b * n) - 2 * k


@pytest.mark.parametrize("b, n", [(3, 5000), (13, 1000), (62, 200)])
@pytest.mark.parametrize("correct", [True, False])
def test_a_propensity_fit_peaks_within_2k_plus_10_vectors_per_row(b, n, correct):
    # The study's first stack at each benchmark size, under either design.
    # The traced peak of the whole fit (the evaluation, the row-major copy,
    # the QR and the IRLS) stays within 2k + 10 length-(b n) vectors: the
    # factored column-major buffer must be freed before the IRLS starts,
    # since it would add k vectors to the IRLS's peak.
    stack = _stacked([generate_dataset(1, n, _replicate_rng(0, rep)) for rep in range(b)])
    design = propensity_design(correct)
    k = len(design) + 1
    tracemalloc.start()
    try:
        fits = _fit_propensities(stack, design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fits.errors.count(None) > 0
    assert peak <= (2 * k + 10) * 8 * b * n, peak / (8 * b * n) - 2 * k


# --- the fits' QR ----------------------------------------------------------


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("n, k", [(5, 8), (60, 2), (300, 40), (400, 140)])
@pytest.mark.parametrize("special", [None, "zero", "rank", "nan"])
def test_the_qr_gives_numpys_bits(b, n, k, special):
    # LAPACK's dgeqrf and dorgqr on the column-major slices of a (b, k, n)
    # buffer, in place, against numpy.linalg.qr of the row-major (b, n, k)
    # stack: q, R, the R-only R and q.T @ y, byte for byte. The shapes take
    # in a matrix wider than its rows and k = 140, past the 128 columns
    # above which LAPACK's blocked path starts; the last slice may be all
    # zero, repeat a column or hold a NaN, beside well-conditioned ones.
    rng = np.random.default_rng([b, n, k, len(str(special))])
    for _ in range(3):
        M = rng.standard_normal((b, n, k)) * 10.0 ** rng.uniform(-3, 3, (b, 1, k))
        Y = rng.standard_normal((b, n, 1))
        if special == "zero":
            M[-1] = 0.0
        elif special == "rank":
            M[-1, :, k - 1] = M[-1, :, 0]
        elif special == "nan":
            M[-1, n // 2, k // 2] = np.nan
        F = np.ascontiguousarray(M.transpose(0, 2, 1))
        _, r_only = _qr(F.copy(), with_q=False)
        q, r = _qr(F)
        q_np, r_np = np.linalg.qr(M)
        assert q.flags.c_contiguous and q.shape == q_np.shape and r.shape == r_np.shape
        assert q.tobytes() == q_np.tobytes() and r.tobytes() == r_np.tobytes()
        assert r_only.tobytes() == np.linalg.qr(M, mode="r").tobytes()
        qty = q.transpose(0, 2, 1) @ Y
        assert qty.tobytes() == (q_np.transpose(0, 2, 1) @ Y).tobytes()


# --- the outcome fit's arm operands ----------------------------------------


def _arm_case(case, b):
    """A stack of b replicates at n = 60 and an outcome design pair: equal
    main effects, the study's correct pair with its ``TransformTerm``
    interaction, an empty interaction, main effects of negative covariates,
    or the correct pair with an x2 of 1e200 in row 7 of the last replicate,
    where x2^2 overflows."""
    data = [generate_dataset(1, 60, np.random.default_rng([b, seed])) for seed in range(b)]
    stack = _stacked(data)
    names = data[0].covariate_names
    if case == "negative":
        np.negative(np.abs(stack.X), out=stack.X)
    if case == "raises":
        stack.X[-1, 6, 1] = 1e200
    if case in ("transform", "raises"):
        return stack, *outcome_design(True, 1)
    main = wate.main_effects(names)
    return stack, main, intercept_only() if case == "empty" else main


@pytest.mark.parametrize("b", [1, 5])
@pytest.mark.parametrize("case", ["shared", "transform", "empty", "negative", "raises"])
def test_the_arm_operands_give_the_bits_of_the_matrices_rebuilt_for_each_arm(case, b):
    # Each fit's coefficients are those of numpy.linalg.qr of its observed
    # design [1, f, A, A g], built here column by column, and each arm's
    # means are _outcome_matrix(main, inter, X, a) @ beta, byte for byte,
    # whose arm and interaction columns are a and a * g: -0.0 for a = 0 where
    # g is negative. A replicate whose design raises keeps its own error and
    # gets zeros.
    stack, main, inter = _arm_case(case, b)
    fits = _fit_outcomes(stack, main, inter)
    for i, (X, A, Y) in enumerate(zip(*stack)):
        if case == "raises" and i == b - 1:
            error = fits.errors[i]
            assert (type(error).__name__, str(error)) == (
                "DesignError", "term 'x2^2' is not finite (rows 7)"
            )
            for values in (fits.beta[i], fits.m1[i], fits.m0[i]):
                assert values.tobytes() == np.zeros_like(values).tobytes()
            continue
        assert fits.errors[i] is None
        f, g = main.matrix(X), inter.matrix(X)
        ones = np.ones((len(A), 1))
        observed = np.hstack([ones, f, A[:, None], A[:, None] * g])
        q, r = np.linalg.qr(observed)
        beta = np.linalg.solve(r, q.T @ Y[:, None])[:, 0]
        assert fits.beta[i].tobytes() == beta.tobytes()
        for a, m in ((1, fits.m1[i]), (0, fits.m0[i])):
            M = _outcome_matrix(main, inter, X, a)
            assert M.tobytes() == np.hstack([ones, f, a * ones, a * g]).tobytes()
            assert m.tobytes() == (M @ beta).tobytes()
        # The main effects of negative covariates give -0.0 in the arm-0
        # interaction block; exp(x1 + 0.5 x3 x5) is positive.
        zeros = _outcome_matrix(main, inter, X, 0)[:, len(main) + 1:]
        assert np.signbit(zeros).any() == (case in ("shared", "negative"))


@pytest.mark.parametrize("b", [1, 5])
@pytest.mark.parametrize("case", ["shared", "transform", "negative"])
def test_the_arm_0_operand_holds_the_signed_zeros_of_the_matrix_rebuilt_for_arm_0(
    monkeypatch, case, b
):
    # m0 multiplies the arm-0 columns the fit writes over its arm-1 operand
    # [1, f, 1, g], the buffer the fit's first _set_arm call fills. They
    # must hold the bytes of _outcome_matrix(main, inter, X, 0.0): 0 and
    # 0 * g, -0.0 where g is negative. A +-0 term moves m0 only where the
    # other terms sum to exactly zero, so the means alone cannot show it.
    stack, main, inter = _arm_case(case, b)
    operands = []
    set_arm = wate.models._set_arm

    def recording_set_arm(M, arm, g):
        operands.append(M)
        set_arm(M, arm, g)

    monkeypatch.setattr(wate.models, "_set_arm", recording_set_arm)
    fits = _fit_outcomes(stack, main, inter)
    assert fits.errors == [None] * b
    arm0 = operands[0][:, :, len(main) + 1:]
    for i, X in enumerate(stack.X):
        expected = _outcome_matrix(main, inter, X, 0.0)[:, len(main) + 1:]
        assert arm0[i].tobytes() == expected.tobytes()
    assert np.signbit(arm0).any() == (case != "transform")


@pytest.mark.parametrize("b, n, correct", [
    (1, 5000, False), (5, 1000, False), (5, 1000, True), (13, 200, False),
])
def test_an_outcome_part_peaks_within_3k_plus_2_vectors_per_row(b, n, correct):
    # The boot-fit shape, the study's parts at n = 1000 under either design
    # (k = 12 and 5) and a part of 13 at n = 200. The traced peak of one
    # part holds three blocks of k length-(b n) vectors at once: the arm-1
    # operand, the observed design factored in place and q. The row-major
    # operand of the arm means is made only once the last two are freed; a
    # fourth live block goes past the bound. The part writes into a result
    # made outside the trace, as _fit_outcomes makes one for all its parts.
    stack = _stacked([generate_dataset(1, n, _replicate_rng(0, rep)) for rep in range(b)])
    main, inter = outcome_design(correct, 1)
    k = len(main) + 2 + len(inter)
    fits = _OutcomeFits([None] * b, np.empty((b, k)), np.empty((b, n)), np.empty((b, n)))
    _fit_outcome_part(stack, slice(0, b), main, inter, fits)  # LAPACK's workspace query, cached
    fits.errors[:] = [False] * b
    tracemalloc.start()
    try:
        _fit_outcome_part(stack, slice(0, b), main, inter, fits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fits.errors == [None] * b
    assert peak <= (3 * k + 2) * 8 * b * n, peak / (8 * b * n) - 3 * k
