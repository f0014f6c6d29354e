"""Stacking replicates changes no result.

The propensity fits of a stack of same-n datasets run as one stacked IRLS,
the outcome fits as one stacked least squares fit, and the study and the
bootstrap fill their replicates a stack at a time. Each problem of a stack
must get the bits, or the error, it gets alone, whatever else is in the
stack and whenever the others leave it.
"""

import numpy as np
import pytest

import wate.bootstrap
import wate.models
import wate.simulation
from wate.bootstrap import _map_stacks, bootstrap_vector
from wate.data import ObservationalDataset
from wate.design import main_effects
from wate.errors import WateError
from wate.estimators import EstimationPipeline, EstimatorKind, _cell_value_rows, plan_cells
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
    alone = [_record(_fit_propensities([ds], design)[0]) for ds in stack]
    assert [_record(r) for r in _fit_propensities(stack, design)] == alone
    # And in another order, so each problem has other neighbours.
    order = [2, 5, 0, 4, 1, 3]
    restacked = _fit_propensities([stack[i] for i in order], design)
    assert [_record(r) for r in restacked] == [alone[i] for i in order]


def test_the_stacks_hold_every_exit_of_the_newton_loop():
    messages = set()
    for make_stack in (_simulated_stack, _one_covariate_stack):
        stack, design = make_stack()
        for result in _fit_propensities(stack, design):
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
        fits = _fit_outcomes([stack[i] for i in order], main, inter)
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
    # operand would change.
    seen = []
    qr, irls = np.linalg.qr, wate.models._irls

    def recording_qr(a, *args, **kwargs):
        seen.append(("qr", all(m.flags.f_contiguous and not m.flags.c_contiguous for m in a)))
        return qr(a, *args, **kwargs)

    def recording_irls(M, *args):
        seen.append(("irls", M.flags.c_contiguous))
        return irls(M, *args)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    monkeypatch.setattr(wate.models, "_irls", recording_irls)
    stack, design = _simulated_stack()
    # All full rank, then a stack whose rank-deficient dataset leaves it.
    _fit_propensities(stack[:3], design)
    _fit_propensities(stack, design)
    data = [generate_dataset(1, 40, np.random.default_rng(seed)) for seed in range(3)]
    for correct in (True, False):  # separate interaction columns, then shared ones
        _fit_outcomes(data, *outcome_design(correct, 1))
    assert seen == [("qr", True), ("irls", True)] * 2 + [("qr", True)] * 2


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
    alone = [_cell_value_rows([ds], plan)[0] for ds in stack]
    failed = [np.isnan(row) for row in alone]
    assert failed[3].all() and not (failed[0].all() or failed[1].all() or failed[4].all())
    assert (failed[1] & ~failed[0]).any() and (failed[4] & ~failed[0]).any()
    for order in ([0, 1, 2, 3, 4], [3, 1, 4, 0, 2]):
        rows = _cell_value_rows([stack[i] for i in order], plan)
        assert [row.tobytes() for row in rows] == [alone[i].tobytes() for i in order]


def _study_matrix(monkeypatch, batch_rows, workers=1):
    """The (replicates, cells) matrix of a study at n = 15."""
    monkeypatch.setattr(wate.bootstrap, "_BATCH_ROWS", batch_rows)
    matrices = []

    def recording(*args):
        rows = _map_stacks(*args)
        matrices.append(np.array(rows))
        return rows

    monkeypatch.setattr(wate.simulation, "_map_stacks", recording)
    run_study(SimulationDesign(outcome_model=1, n=15, replications=7, seed=3, workers=workers))
    (matrix,) = matrices
    return matrix


def _bootstrap_matrix(monkeypatch, batch_rows, workers=1):
    """The (replicates, cells) matrix of a bootstrap at n = 20."""
    monkeypatch.setattr(wate.bootstrap, "_BATCH_ROWS", batch_rows)
    design = SimulationDesign(outcome_model=2, n=20)
    plan = plan_cells([_cell_pipeline(design, cell) for cell in study_cells(design)])
    ds = generate_dataset(2, 20, np.random.default_rng(1)).observed()
    return bootstrap_vector(ds, plan, b=7, seed=5, workers=workers)


@pytest.mark.parametrize("matrix, n", [(_study_matrix, 15), (_bootstrap_matrix, 20)])
def test_replicates_are_the_same_bits_at_every_stack_size(monkeypatch, matrix, n):
    # 7 replicates in stacks of 1 (_BATCH_ROWS = 1 and n), of 3 (3n, the
    # last stack holding 1) and of all 7 (the default). Different cells fail
    # in different replicates, so the stacks hold failing fits too.
    reference = matrix(monkeypatch, 1)
    failed = np.isnan(reference).sum(axis=1)
    assert len(set(failed.tolist())) > 1 and failed.max() < reference.shape[1]
    for batch_rows, workers in ((n, 1), (3 * n, 1), (3 * n, 2), (4096, 1)):
        got = matrix(monkeypatch, batch_rows, workers)
        assert got.tobytes() == reference.tobytes(), (batch_rows, workers)
