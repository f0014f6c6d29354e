"""Stacking replicates changes no result.

The propensity fits of a stack of same-n datasets run as one stacked IRLS,
the outcome fits as stacked least squares fits of consecutive parts of the
stack, and the study and the bootstrap split their replicates over the
processes, then fill each process's share a stack at a time. Each problem of
a stack must get the bits, or the error, it gets alone, whatever else is in
the stack or its part and whenever the others leave it.
"""

import numpy as np
import pytest

import wate.bootstrap
import wate.data
import wate.models
import wate.simulation
from wate.bootstrap import _map_stacks, bootstrap_vector
from wate.data import ObservationalDataset, _Stack
from wate.design import DesignSpec, TransformTerm, main_effects
from wate.errors import WateError
from wate.estimators import (
    EstimationPipeline,
    EstimatorKind,
    _cell_value_rows,
    _fill,
    fill_cells,
    plan_cells,
)
from wate.models import RANK_TOL, _fit_outcomes, _fit_propensities, fit_outcome
from wate.simulation import (
    SimulationDesign,
    _cell_pipeline,
    generate_dataset,
    outcome_design,
    propensity_design,
    run_study,
    study_cells,
)
from wate.targets import STANDARD_TARGETS, covariate_target, linear_in_propensity


_DEFAULT_BATCH_ROWS = wate.data._BATCH_ROWS
_DEFAULT_PART_ROWS = wate.models._PART_ROWS


def _stacked(datasets):
    """The same-n datasets as one stack of replicates."""
    return _Stack(
        np.stack([ds.X for ds in datasets]), np.stack([ds.A for ds in datasets]),
        np.stack([ds.Y for ds in datasets]), datasets[0].covariate_names,
    )


def _record(result):
    """Everything a fit returns, as comparable values: the bits of a model,
    or the class and message of an error and the bits of its model."""
    if isinstance(result, WateError):
        model = getattr(result, "model", None)
        return (type(result).__name__, str(result), None if model is None else _record(model))
    return (
        result.alpha.tobytes(), result.pi.tobytes(), result.log_likelihood.hex(),
        result.iterations, result.converged,
    )


def _one_covariate(x, a):
    return ObservationalDataset(X=np.reshape(x, (-1, 1)), A=a, Y=np.zeros(len(a)))


def _simulated_stack():
    """n = 20 datasets for the correct simulation design: fits that converge,
    fits that end pinned at the clamp bounds, one of them after halved steps
    (seed 40), and a rank-deficient design."""
    stack = [generate_dataset(1, 20, np.random.default_rng(seed)) for seed in (40, 1, 2, 3, 4, 5)]
    constant = stack[3]
    X = constant.X.copy()
    X[:, 0] = 1.0
    stack[3] = ObservationalDataset(X=X, A=constant.A, Y=constant.Y)
    return stack, propensity_design(True)


def _one_covariate_stack():
    """n = 12 datasets for one covariate: a fit that converges, one pinned at
    the clamp bounds, a singular information matrix after 23 updates,
    MAX_ITER updates of steps halved 50 times and a constant covariate."""
    converging = _one_covariate(
        [0.13, -0.13, 0.64, 0.1, -0.54, 0.36, 1.3, 0.95, -0.7, -1.27, -0.62, 0.04],
        np.array([0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0], dtype=np.float64),
    )
    separated = _one_covariate(
        [0.19, -0.52, -0.41, -2.44, 1.8, 1.14, -0.33, 0.77, 0.28, -0.55, 0.98, -0.31],
        np.array([1, 0, 0, 0, 1, 1, 0, 1, 1, 0, 1, 0], dtype=np.float64),
    )
    singular = _one_covariate(
        2.0**25 + np.array([1, 1, 1, 1, 2, 1, 1, 1, 1, 2, 0, 1], dtype=np.float64),
        np.array([0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1], dtype=np.float64),
    )
    halved = _one_covariate(
        2.0**27 + (np.arange(12) % 3 == 0),
        np.array([0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0], dtype=np.float64),
    )
    constant = _one_covariate(np.full(12, 3.0), converging.A)
    return [singular, converging, halved, separated, constant, converging], main_effects(("x1",))


@pytest.mark.parametrize("make_stack", [_simulated_stack, _one_covariate_stack])
def test_a_stacked_fit_gives_each_problem_its_own_bits(make_stack):
    stack, design = make_stack()
    alone = [_record(_fit_propensities(_stacked([ds]), design)[0]) for ds in stack]
    assert [_record(r) for r in _fit_propensities(_stacked(stack), design)] == alone
    # And in another order, so each problem has other neighbours.
    order = [2, 5, 0, 4, 1, 3]
    restacked = _fit_propensities(_stacked([stack[i] for i in order]), design)
    assert [_record(r) for r in restacked] == [alone[i] for i in order]


def test_the_stacks_hold_every_exit_of_the_newton_loop():
    messages = set()
    for make_stack in (_simulated_stack, _one_covariate_stack):
        stack, design = make_stack()
        for result in _fit_propensities(_stacked(stack), design):
            messages.add(str(result).split(" (")[0] if isinstance(result, WateError) else "model")
    assert messages == {
        "model",
        "fitted probabilities pinned at the clamp bounds; treatment may be separable "
        "from these covariates",
        "singular information matrix during propensity fit",
        "propensity fit did not converge in 100 updates",
        "propensity design matrix is numerically rank deficient",
    }


def _with_columns(ds, A=None, **columns):
    """``ds`` with covariate columns ``x<j>`` and the treatment replaced."""
    X = ds.X.copy()
    for name, values in columns.items():
        X[:, int(name[1:]) - 1] = values
    return ObservationalDataset(X=X, A=ds.A if A is None else A, Y=ds.Y)


def _outcome_alone(ds, main, inter):
    try:
        om = fit_outcome(ds, main, inter)
    except WateError as exc:
        return type(exc).__name__, str(exc)
    return om.beta.tobytes(), om.m1.tobytes(), om.m0.tobytes()


def _outcome_stacked(fits, i):
    error = fits.errors[i]
    if error is not None:
        return type(error).__name__, str(error)
    return fits.beta[i].tobytes(), fits.m1[i].tobytes(), fits.m0[i].tobytes()


@pytest.mark.parametrize("n", [10, 12, 40])
@pytest.mark.parametrize("correct, model", [(True, 1), (True, 2), (False, 1)])
def test_a_stacked_outcome_fit_gives_each_dataset_its_own_bits(n, correct, model):
    # Dataset 1 has a constant covariate, which every design reads, so its
    # fit is rank deficient. At n = 10 and 12 the misspecified design (12
    # columns) has more columns than rows or no residual degree of freedom.
    stack = [generate_dataset(model, n, np.random.default_rng(seed)) for seed in range(5)]
    stack[1] = _with_columns(stack[1], x3=0.5)
    main, inter = outcome_design(correct, model)
    alone = [_outcome_alone(ds, main, inter) for ds in stack]
    assert any(len(record) == 3 for record in alone) == (correct or n == 40)
    assert alone[1][0] == "RankDeficiencyError" or n == 10 and not correct
    for order in ([0, 1, 2, 3, 4], [3, 1, 4, 0, 2]):
        fits = _fit_outcomes(_stacked([stack[i] for i in order]), main, inter)
        assert [_outcome_stacked(fits, j) for j in range(5)] == [alone[i] for i in order]


@pytest.mark.parametrize("n", [10, 13, 1000])
@pytest.mark.parametrize("k", [4, 5, 6, 12])
@pytest.mark.parametrize("b", [1, 4])
def test_qr_gives_the_same_bits_on_a_column_major_stack(b, k, n):
    # The fits hand numpy.linalg.qr column-major slices; numpy copies each
    # slice into a Fortran buffer before LAPACK reads it, so the layout of
    # its input must change no bit of q, of R or of the R-only R. Slice 0
    # repeats a column, so its smallest |R_jj| is rounding noise, which the
    # rank message prints.
    M = np.random.default_rng([b, k, n]).standard_normal((b, n, k))
    M[:, :, 0] = 1.0
    M[0, :, k - 1] = M[0, :, 1]
    F = np.empty((b, k, n)).transpose(0, 2, 1)
    F[...] = M
    assert all(f.flags.f_contiguous and not f.flags.c_contiguous for f in F)
    q, r = np.linalg.qr(M)
    q_f, r_f = np.linalg.qr(F)
    assert q_f.tobytes() == q.tobytes() and r_f.tobytes() == r.tobytes()
    assert np.linalg.qr(F, mode="r").tobytes() == np.linalg.qr(M, mode="r").tobytes()
    r_diag = np.abs(np.diagonal(r[0]))
    assert n < k or r_diag.min() <= RANK_TOL * r_diag.max()


def test_qr_reads_column_major_slices_and_irls_row_major_stacks(monkeypatch):
    # The model matrices are built column-major for LAPACK; every BLAS
    # product of the IRLS reads a row-major copy, whose bits a column-major
    # operand would change. A propensity design whose Gram matrix proves it
    # full rank is not factored: of the two propensity stacks, only the
    # rank-deficient dataset reaches the QR, as a stack of one. Each outcome
    # fit factors its whole stack.
    seen = []
    qr, irls = np.linalg.qr, wate.models._irls

    def recording_qr(a, *args, **kwargs):
        column_major = all(m.flags.f_contiguous and not m.flags.c_contiguous for m in a)
        seen.append(("qr", len(a), column_major))
        return qr(a, *args, **kwargs)

    def recording_irls(M, *args):
        seen.append(("irls", len(M), M.flags.c_contiguous))
        return irls(M, *args)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    monkeypatch.setattr(wate.models, "_irls", recording_irls)
    stack, design = _simulated_stack()
    # All full rank, then a stack whose rank-deficient dataset leaves it.
    _fit_propensities(_stacked(stack[:3]), design)
    _fit_propensities(_stacked(stack), design)
    data = [generate_dataset(1, 40, np.random.default_rng(seed)) for seed in range(3)]
    for correct in (True, False):  # separate interaction columns, then shared ones
        _fit_outcomes(_stacked(data), *outcome_design(correct, 1))
    assert seen == [
        ("irls", 3, True), ("qr", 1, True), ("irls", 5, True), ("qr", 3, True), ("qr", 3, True)
    ]


def _positive_x1(X):
    return np.maximum(X[:, 0], 0.0)


def _mixed_plan():
    """Every kind on the four standard targets, a linear target that is
    negative on some rows and a covariate target, with and without a
    propensity design and a truncation."""
    targets = (
        *STANDARD_TARGETS.values(),
        linear_in_propensity(-0.2, 1.0),
        covariate_target(_positive_x1, "max(x1,0)"),
    )
    design = main_effects(("x1", "x2", "x3", "x4", "x5"))
    reads_m = (EstimatorKind.REGRESSION, EstimatorKind.AIPW, EstimatorKind.DR_LINEAR_IN_PI)
    return plan_cells([
        EstimationPipeline(target, kind, pi, design if kind in reads_m else None, truncate=truncate)
        for kind in EstimatorKind
        for target in targets
        for pi, truncate in ((None, None), (design, None), (design, (2.0, 98.0)))
    ])


def test_a_stacked_fill_gives_each_dataset_its_own_bits():
    # Dataset 1 puts no mass on the covariate target, dataset 3 has no
    # treated rows, so every cell fails on it, and both fits of dataset 4
    # fail on a constant covariate.
    n = 40
    stack = [generate_dataset(1, n, np.random.default_rng(seed)) for seed in (7, 8, 9, 10, 11)]
    stack[1] = _with_columns(stack[1], x1=-np.abs(stack[1].X[:, 0]))
    stack[3] = _with_columns(stack[3], A=np.zeros(n))
    stack[4] = _with_columns(stack[4], x5=0.5)
    plan = _mixed_plan()
    alone = [_cell_value_rows(_stacked([ds]), plan)[0] for ds in stack]
    failed = [np.isnan(row) for row in alone]
    assert failed[3].all() and not (failed[0].all() or failed[1].all() or failed[4].all())
    assert (failed[1] & ~failed[0]).any() and (failed[4] & ~failed[0]).any()
    for order in ([0, 1, 2, 3, 4], [3, 1, 4, 0, 2]):
        rows = _cell_value_rows(_stacked([stack[i] for i in order]), plan)
        assert [row.tobytes() for row in rows] == [alone[i].tobytes() for i in order]


def _error_stack():
    """n = 40 datasets on which the errors of the fits and of ``h`` are each
    a replicate's own: in dataset 1, ``x2^2`` overflows in row 7 (so does
    the misspecified design's rank check), and dataset 3 has fitted
    propensities below 0.02, where ``h = -0.02 + pi`` is negative."""
    stack = [generate_dataset(1, 40, np.random.default_rng(seed)) for seed in (0, 1, 2, 6, 11)]
    x2 = stack[1].X[:, 1].copy()
    x2[6] = 1e200
    stack[1] = _with_columns(stack[1], x2=x2)
    return stack


def _error_plan():
    targets = (*STANDARD_TARGETS.values(), linear_in_propensity(-0.02, 1.0))
    kinds = (EstimatorKind.REGRESSION, EstimatorKind.IPW_NORMALIZED, EstimatorKind.AIPW)
    return plan_cells([
        EstimationPipeline(
            target, kind, propensity_design(pc), *outcome_design(mc, 1)
        )
        for kind in kinds for target in targets for pc in (True, False) for mc in (True, False)
    ])


def _described(result):
    if isinstance(result, WateError):
        return type(result).__name__, str(result)
    return result.value.hex()


def test_each_replicate_of_a_stack_gets_its_own_errors():
    stack = _error_stack()
    plan = _error_plan()
    designs = [propensity_design(True), propensity_design(False)]
    outcomes = [outcome_design(True, 1), outcome_design(False, 1)]
    fits_alone = [
        [_record(_fit_propensities(_Stack.of(ds), design)[0]) for design in designs]
        for ds in stack
    ]
    outcomes_alone = [[_outcome_alone(ds, *pair) for pair in outcomes] for ds in stack]
    cells_alone = [[_described(r) for r in fill_cells(ds, plan)] for ds in stack]
    values_alone = [_cell_value_rows(_Stack.of(ds), plan)[0] for ds in stack]
    # The errors are each one replicate's, with rows counted in its own data.
    overflow = ("DesignError", "term 'x2^2' is not finite (rows 7)")
    assert fits_alone[1][0][:2] == outcomes_alone[1][0] == overflow
    assert fits_alone[1][1][0] == outcomes_alone[1][1][0] == "RankDeficiencyError"
    negative = (
        "NegativeTargetError", "linear:-0.02,1: a + b*pi is negative for some observations"
    )
    linear = [j for j, c in enumerate(plan.cells) if c.target.label.startswith("linear")]
    for i, cells in enumerate(cells_alone):
        assert [cells[j] == negative for j in linear] == [i == 3] * len(linear)
    assert all(isinstance(cells_alone[i][j], str) for i in (0, 2, 4) for j in linear)
    for order in ([0, 1, 2, 3, 4], [3, 4, 1, 0, 2]):
        stacked = _stacked([stack[i] for i in order])
        for d, design in enumerate(designs):
            fits = _fit_propensities(stacked, design)
            assert [_record(r) for r in fits] == [fits_alone[i][d] for i in order]
        for d, pair in enumerate(outcomes):
            fits = _fit_outcomes(stacked, *pair)
            assert [_outcome_stacked(fits, j) for j in range(5)] == [
                outcomes_alone[i][d] for i in order
            ]
        values, errors = _fill(stacked, plan)
        for j, i in enumerate(order):
            cells = [
                _described(err[j]) if j in err else values[j, c].hex()
                for c, err in enumerate(errors)
            ]
            assert cells == cells_alone[i]
        rows = _cell_value_rows(stacked, plan)
        assert [row.tobytes() for row in rows] == [values_alone[i].tobytes() for i in order]


@pytest.mark.parametrize("fault", ["rank", "design"])
def test_an_outcome_fit_works_through_its_stack_in_parts(monkeypatch, fault):
    # 5 datasets at n = 40 in parts of 2 (_PART_ROWS = 80): parts 0-1, 2-3
    # and 4. Dataset 3, in the second part, has a constant covariate, which
    # every design reads, or an x2 of 1e200 in row 7, where the correct
    # design's x2^2 overflows. That fit, and only that one, fails, with the
    # error it gets alone; the others keep their bits. Each part is factored
    # on its own and is a slice of the stack, which is not checked again.
    stack = [generate_dataset(1, 40, np.random.default_rng(seed)) for seed in range(5)]
    if fault == "rank":
        stack[3] = _with_columns(stack[3], x3=0.5)
    else:
        x2 = stack[3].X[:, 1].copy()
        x2[6] = 1e200
        stack[3] = _with_columns(stack[3], x2=x2)
    whole = _stacked(stack)
    monkeypatch.setattr(wate.models, "_PART_ROWS", 80)
    shapes, checks = [], []
    qr, post_init = np.linalg.qr, _Stack.__post_init__
    monkeypatch.setattr(
        np.linalg, "qr", lambda a, *args, **kw: shapes.append(a.shape[:2]) or qr(a, *args, **kw)
    )
    monkeypatch.setattr(_Stack, "__post_init__", lambda self: checks.append(None) or post_init(self))
    for correct in (True, False):
        main, inter = outcome_design(correct, 1)
        alone = [_outcome_alone(ds, main, inter) for ds in stack]
        assert [len(record) == 2 for record in alone] == [False, False, False, True, False]
        if fault == "design" and correct:
            assert alone[3] == ("DesignError", "term 'x2^2' is not finite (rows 7)")
        shapes.clear()
        checks.clear()
        fits = _fit_outcomes(whole, main, inter)
        assert shapes == [(2, 40), (2, 40), (1, 40)] and checks == []
        assert [_outcome_stacked(fits, j) for j in range(5)] == alone


def _map_bounds(indices):
    return [(indices.start, indices.stop)] * len(indices)


@pytest.mark.parametrize("fork", [True, False])
def test_the_replicates_are_split_over_the_processes_before_they_are_stacked(monkeypatch, fork):
    # 7 replicates at n = 15 fit one stack (_BATCH_ROWS = 7n). Two workers
    # split them 3 and 4 first and stack each share, and the pool kept for
    # platforms that do not fork runs four shares per worker.
    monkeypatch.setattr(wate.bootstrap, "_BATCH_ROWS", 7 * 15)
    monkeypatch.setattr(wate.bootstrap, "_FORK", fork)
    assert _map_stacks(_map_bounds, 7, 15, 1) == [(0, 7)] * 7
    shares = [(0, 3)] * 3 + [(3, 7)] * 4 if fork else [(i, i + 1) for i in range(7)]
    assert _map_stacks(_map_bounds, 7, 15, 2) == shares
    monkeypatch.setattr(wate.bootstrap, "_BATCH_ROWS", 2 * 15)
    stacks = [(0, 2)] * 2 + [(2, 3)] + [(3, 5)] * 2 + [(5, 7)] * 2
    assert _map_stacks(_map_bounds, 7, 15, 2) == (stacks if fork else shares)


def _set_batch_rows(monkeypatch, batch_rows, part_rows):
    """Stacks of ``batch_rows`` rows and outcome parts of ``part_rows``."""
    monkeypatch.setattr(wate.bootstrap, "_BATCH_ROWS", batch_rows)
    monkeypatch.setattr(wate.models, "_PART_ROWS", part_rows)


def _study_matrix(monkeypatch, batch_rows, part_rows, workers=1):
    """The (replicates, cells) matrix of a study at n = 15."""
    _set_batch_rows(monkeypatch, batch_rows, part_rows)
    matrices = []

    def recording(*args):
        rows = _map_stacks(*args)
        matrices.append(np.array(rows))
        return rows

    monkeypatch.setattr(wate.simulation, "_map_stacks", recording)
    run_study(SimulationDesign(outcome_model=1, n=15, replications=7, seed=3, workers=workers))
    (matrix,) = matrices
    return matrix


def _bootstrap_matrix(monkeypatch, batch_rows, part_rows, workers=1):
    """The (replicates, cells) matrix of a bootstrap at n = 20."""
    _set_batch_rows(monkeypatch, batch_rows, part_rows)
    design = SimulationDesign(outcome_model=2, n=20)
    plan = plan_cells([_cell_pipeline(design, cell) for cell in study_cells(design)])
    ds = generate_dataset(2, 20, np.random.default_rng(1)).observed()
    return bootstrap_vector(ds, plan, b=7, seed=5, workers=workers)


def _centred_x1(X):
    return X[:, 0] - X[:, 0].mean()


def _centred_propensity_design(correct):
    """The misspecified propensity design with x1 centred on its replicate's
    mean: a term that reads every row of its replicate."""
    if correct:
        return propensity_design(True)
    terms = main_effects(("x1", "x2", "x3", "x4", "x5")).terms
    return DesignSpec((TransformTerm("x1 - mean(x1)", _centred_x1), *terms[1:]))


@pytest.mark.parametrize("matrix, n", [(_study_matrix, 15), (_bootstrap_matrix, 20)])
def test_replicates_are_the_same_bits_at_every_stack_size(monkeypatch, matrix, n):
    # 7 replicates in stacks of 1 (_BATCH_ROWS = 1, where the outcome parts
    # get a budget of 0 rows and hold one replicate, and n), of 3 (3n, the
    # last stack holding 1) and of all 7 (7n, which 2 workers split into
    # shares of 3 and 4, and the default). The outcome fits run in parts of
    # 2 and 1 in stacks of 3 (_PART_ROWS = 3n // 2 rounds up to 2
    # replicates), and of 3 with 7n rows (_PART_ROWS = 3n), a 4-replicate
    # share in parts of 3 and 1. Different cells fail in different
    # replicates, so the stacks hold failing fits too. The misspecified
    # propensity design centres x1 on each replicate's mean, which a term
    # evaluated on the rows of the whole stack would not.
    monkeypatch.setattr(wate.simulation, "propensity_design", _centred_propensity_design)
    reference = matrix(monkeypatch, 1, 0)
    failed = np.isnan(reference).sum(axis=1)
    assert len(set(failed.tolist())) > 1 and failed.max() < reference.shape[1]
    cases = (
        (n, n // 2, 1), (3 * n, 3 * n // 2, 1), (3 * n, 3 * n // 2, 2), (7 * n, 3 * n, 2),
        (_DEFAULT_BATCH_ROWS, _DEFAULT_PART_ROWS, 1),
    )
    for batch_rows, part_rows, workers in cases:
        got = matrix(monkeypatch, batch_rows, part_rows, workers)
        assert got.tobytes() == reference.tobytes(), (batch_rows, part_rows, workers)


def test_a_bootstrap_gathers_each_stack_once(monkeypatch):
    # 7 replicates at n = 20 in stacks of 3: one gather of a (3, 20) index
    # stack per stack, which gives each replicate the rows replace_rows
    # gives it, and no dataset per replicate.
    ds = generate_dataset(2, 20, np.random.default_rng(1)).observed()
    idx = np.array([wate.bootstrap._replicate_indices(5, i, 20) for i in range(3)])
    stack = _Stack.gather(ds, idx)
    for i, rows in enumerate(idx):
        resample = ds.replace_rows(rows)
        assert [stack.X[i].tobytes(), stack.A[i].tobytes(), stack.Y[i].tobytes()] == [
            resample.X.tobytes(), resample.A.tobytes(), resample.Y.tobytes()
        ]
    gathers, replaced = [], []
    gather, replace_rows = _Stack.gather, ObservationalDataset.replace_rows
    monkeypatch.setattr(
        _Stack, "gather",
        classmethod(lambda cls, ds, idx: gathers.append(idx.shape) or gather(ds, idx)),
    )
    monkeypatch.setattr(
        ObservationalDataset, "replace_rows",
        lambda self, idx: replaced.append(idx) or replace_rows(self, idx),
    )
    monkeypatch.setattr(wate.bootstrap, "_BATCH_ROWS", 60)
    design = main_effects(ds.covariate_names)
    plan = plan_cells(
        [EstimationPipeline(STANDARD_TARGETS["ate"], EstimatorKind.AIPW, design, design)]
    )
    bootstrap_vector(ds, plan, b=7, seed=5)
    assert gathers == [(3, 20), (3, 20), (1, 20)] and replaced == []


def test_a_stack_is_the_fewest_replicates_that_hold_the_batch_rows():
    # Stacks round up: at least _BATCH_ROWS = 8192 rows, fewer than 16384
    # up to n = 8192, pairs from n = 4097 to 8191, and one replicate above.
    assert _DEFAULT_BATCH_ROWS == 8192
    sizes = {}
    for n in (200, 1000, 4096, 4097, 5000, 8192, 8193):
        stacks = []
        _map_stacks(lambda indices: stacks.append(len(indices)) or list(indices), 100, n, 1)
        sizes[n] = stacks[0]
        assert sum(stacks) == 100 and set(stacks[:-1]) == {stacks[0]}
    assert sizes == {200: 41, 1000: 9, 4096: 2, 4097: 2, 5000: 2, 8192: 1, 8193: 1}


def test_a_large_bootstrap_refits_its_resamples_in_pairs(monkeypatch):
    # The shape of the README quick start at n = 5000: the effect on the
    # treated by AIPW, main effects in both models, propensities truncated
    # at (1, 99). Its 4 refits gather two (2, 5000) index stacks and get the
    # bits of stacks of one.
    ds = generate_dataset(1, 5000, np.random.default_rng(8)).observed()
    design = main_effects(ds.covariate_names)
    pipeline = EstimationPipeline(
        STANDARD_TARGETS["att"], EstimatorKind.AIPW, design, design, truncate=(1.0, 99.0)
    )
    plan = plan_cells([pipeline])
    gathers = []
    gather = _Stack.gather
    monkeypatch.setattr(
        _Stack, "gather",
        classmethod(lambda cls, ds, idx: gathers.append(idx.shape) or gather(ds, idx)),
    )
    pairs = bootstrap_vector(ds, plan, b=4, seed=0)
    assert gathers == [(2, 5000), (2, 5000)]
    assert np.isfinite(pairs).all()
    monkeypatch.setattr(wate.bootstrap, "_BATCH_ROWS", 1)
    gathers.clear()
    ones = bootstrap_vector(ds, plan, b=4, seed=0)
    assert gathers == [(1, 5000)] * 4
    assert pairs.tobytes() == ones.tobytes()
