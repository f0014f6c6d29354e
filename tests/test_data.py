import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wate.data import (
    CounterfactualDataset,
    ObservationalDataset,
    load_csv,
    save_csv,
    validate,
)
from wate.errors import (
    ColumnRoleError,
    CsvFormatError,
    DataError,
    DegenerateArmError,
    MissingValueError,
    NonBinaryTreatmentError,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


BASIC = "x1,x2,a,y\n1,2,0,1.5\n-1,0.5,1,2\n0,1,1,0\n2,-2,0,3\n"


def test_load_basic(tmp_path):
    ds = load_csv(write(tmp_path, BASIC))
    assert ds.n == 4
    assert ds.p == 2
    assert ds.covariate_names == ("x1", "x2")
    assert ds.n_treated == 2 and ds.n_control == 2
    np.testing.assert_array_equal(ds.X[:, 0], [1, -1, 0, 2])
    np.testing.assert_array_equal(ds.A, [0, 1, 1, 0])
    np.testing.assert_array_equal(ds.Y, [1.5, 2, 0, 3])


def test_load_covariate_subset_reorders(tmp_path):
    ds = load_csv(write(tmp_path, BASIC), covariates=["x2", "x1"])
    assert ds.covariate_names == ("x2", "x1")
    np.testing.assert_array_equal(ds.X[:, 0], [2, 0.5, 1, -2])


@pytest.mark.parametrize(
    "covariates, message",
    [
        (["x1", "y"], "covariate column 'y' is the outcome column"),
        (["a"], "covariate column 'a' is the treatment column"),
        (["x2", "x1", "x2"], "covariate column 'x2' is named twice"),
    ],
    ids=["outcome", "treatment", "twice"],
)
def test_a_covariate_must_be_another_column_named_once(tmp_path, covariates, message):
    # Refused before any row is read: the bad cell in row 1 is never met.
    path = write(tmp_path, BASIC.replace("1,2,0,1.5", "oops,2,0,1.5"))
    with pytest.raises(ColumnRoleError) as info:
        load_csv(path, covariates=covariates)
    assert str(info.value) == f"{path}: {message}"


def test_the_treatment_and_the_outcome_must_be_two_columns(tmp_path):
    # Refused before any row is read, like a covariate in either role.
    path = write(tmp_path, BASIC.replace("1,2,0,1.5", "oops,2,0,1.5"))
    with pytest.raises(ColumnRoleError) as info:
        load_csv(path, treatment="a", outcome="a")
    assert str(info.value) == f"{path}: column 'a' is both the treatment and the outcome"


def test_load_custom_column_names(tmp_path):
    text = "age,treat,outcome\n1,0,1\n2,1,2\n3,0,3\n4,1,4\n"
    ds = load_csv(write(tmp_path, text), treatment="treat", outcome="outcome")
    assert ds.covariate_names == ("age",)
    assert ds.treatment_name == "treat"


def test_missing_cell_is_named(tmp_path):
    text = "x1,a,y\n1,0,1\n2,1,\n3,0,3\n4,1,4\n"
    with pytest.raises(MissingValueError, match=r"row 2.*'y'"):
        load_csv(write(tmp_path, text))


def test_unparseable_cell(tmp_path):
    text = "x1,a,y\n1,0,1\noops,1,2\n3,0,3\n4,1,4\n"
    with pytest.raises(MissingValueError, match="oops"):
        load_csv(write(tmp_path, text))


def test_non_binary_treatment(tmp_path):
    text = "x1,a,y\n1,0,1\n2,2,2\n3,0,3\n4,1,4\n"
    with pytest.raises(NonBinaryTreatmentError) as info:
        load_csv(write(tmp_path, text))
    assert str(info.value) == "treatment column 'a' contains values other than 0/1: 2"


def test_construction_refuses_a_non_binary_treatment():
    # Every dataset is checked, not only a loaded one: this one once gave an
    # IPW estimate with no error.
    rng = np.random.default_rng(3)
    with pytest.raises(NonBinaryTreatmentError, match=r"other than 0/1: 0\.5, 2$"):
        ObservationalDataset(
            X=rng.normal(size=(20, 2)), A=np.tile([0, 0.5, 1, 2], 5), Y=rng.normal(size=20)
        )


def test_degenerate_arm(tmp_path):
    text = "x1,a,y\n1,0,1\n2,1,2\n3,0,3\n4,0,4\n"
    with pytest.raises(DegenerateArmError):
        load_csv(write(tmp_path, text))


def test_duplicate_header(tmp_path):
    with pytest.raises(CsvFormatError):
        load_csv(write(tmp_path, "x1,x1,a,y\n1,2,0,1\n"))


def test_missing_required_column(tmp_path):
    with pytest.raises(CsvFormatError, match="'a'"):
        load_csv(write(tmp_path, "x1,y\n1,2\n"))


def test_ragged_row(tmp_path):
    with pytest.raises(CsvFormatError, match="row 1"):
        load_csv(write(tmp_path, "x1,a,y\n1,0\n"))


def test_validate_clean(small_dataset):
    assert validate(small_dataset) == []


def test_validate_sample_size_floor(tmp_path):
    # n = 3 with five covariates: too small outright, and with only one
    # control the arm check fires as well.
    ds = ObservationalDataset(
        X=np.arange(15.0).reshape(3, 5), A=np.array([0.0, 1, 1]), Y=np.zeros(3)
    )
    problems = validate(ds)
    assert any("p + 2" in p for p in problems)
    # Loading it names both problems, as an arm error.
    save_csv(ds, tmp_path / "small.csv")
    with pytest.raises(DegenerateArmError) as info:
        load_csv(tmp_path / "small.csv")
    assert str(info.value) == "; ".join(problems)
    assert "control arm has 1" in str(info.value) and "p + 2" in str(info.value)


def test_validate_isolated_sample_size_violation(tmp_path):
    rng = np.random.default_rng(1)
    ds = ObservationalDataset(
        X=rng.normal(size=(5, 4)),
        A=np.array([0.0, 0, 1, 1, 1]),
        Y=np.zeros(5),
    )
    problems = validate(ds)
    assert len(problems) == 1 and "p + 2" in problems[0]
    # Both arms are fine, so loading it is a plain data error.
    save_csv(ds, tmp_path / "small.csv")
    with pytest.raises(DataError, match=r"p \+ 2") as info:
        load_csv(tmp_path / "small.csv")
    assert not isinstance(info.value, DegenerateArmError)


def test_validate_non_finite():
    # Construction refuses non-finite values, so validate() never sees them.
    X = np.ones((6, 1))
    A = np.array([0.0, 1, 0, 1, 0, 1])
    Y = np.zeros(6)
    Y[3] = np.nan
    with pytest.raises(MissingValueError, match=r"non-finite values in y \(rows 4, \.\.\.\)"):
        ObservationalDataset(X=X, A=A, Y=Y)
    X[[1, 4], 0] = np.inf
    A[2] = np.nan
    with pytest.raises(
        MissingValueError,
        match=r"covariates \(rows 2, 5, \.\.\.\); non-finite values in a \(rows 3, \.\.\.\)",
    ):
        ObservationalDataset(X=X, A=A, Y=Y)


def test_arrays_are_read_only(small_dataset):
    with pytest.raises(ValueError):
        small_dataset.Y[0] = 99.0
    with pytest.raises(ValueError):
        small_dataset.X[0, 0] = 99.0


def test_length_mismatch_rejected():
    with pytest.raises(DataError):
        ObservationalDataset(X=np.ones((4, 1)), A=np.zeros(3), Y=np.zeros(4))


@pytest.mark.parametrize("cls", [ObservationalDataset, CounterfactualDataset])
def test_construction_refuses_a_dataset_with_no_rows(cls):
    # Every fit and the bootstrap size their stacks by dividing by n.
    with pytest.raises(DataError, match="^a dataset needs at least one row, got none$"):
        cls(X=np.zeros((0, 2)), A=np.zeros(0), Y=np.zeros(0))


def test_counterfactual_consistency_enforced():
    X = np.zeros((4, 1))
    A = np.array([0.0, 1, 0, 1])
    y1 = np.ones(4)
    y0 = np.zeros(4)
    good = np.where(A == 1, y1, y0)
    CounterfactualDataset(X=X, A=A, Y=good, y1=y1, y0=y0, pi_true=np.full(4, 0.5))
    with pytest.raises(DataError):
        CounterfactualDataset(
            X=X, A=A, Y=1 - good, y1=y1, y0=y0, pi_true=np.full(4, 0.5)
        )
    with pytest.raises(DataError):
        CounterfactualDataset(
            X=X, A=A, Y=good, y1=y1, y0=y0, pi_true=np.full(4, 1.0)
        )


def test_counterfactual_non_finite_values_refused():
    # The potential outcome of the arm not taken is never compared with Y,
    # and NaN passes both halves of a ``pi <= 0 or pi >= 1`` test.
    with pytest.raises(MissingValueError) as info:
        CounterfactualDataset(
            X=np.zeros((4, 1)), A=[0.0, 1, 0, 1], Y=[0.0, 1, 0, 1],
            y1=[1.0, 1, np.nan, 1], y0=np.zeros(4), pi_true=[0.5, np.nan, 0.5, 0.5],
        )
    assert str(info.value) == (
        "non-finite values in y1 (rows 3, ...); non-finite values in pi_true (rows 2, ...)"
    )
    with pytest.raises(MissingValueError, match=r"in y0 \(rows 1, 4, \.\.\.\)"):
        CounterfactualDataset(
            X=np.zeros((4, 1)), A=[1.0, 1, 0, 1], Y=[1.0, 1, 0, 1],
            y1=np.ones(4), y0=[np.inf, 0, 0, -np.inf], pi_true=np.full(4, 0.5),
        )


def test_observed_strips_counterfactual_columns():
    X = np.arange(8.0).reshape(4, 2)
    A = np.array([0.0, 1, 0, 1])
    y1, y0 = np.ones(4), np.zeros(4)
    full = CounterfactualDataset(
        X=X, A=A, Y=np.where(A == 1, y1, y0), y1=y1, y0=y0, pi_true=np.full(4, 0.5),
        covariate_names=("u", "v"), treatment_name="t", outcome_name="out",
    )
    ds = full.observed()
    assert type(ds) is ObservationalDataset
    assert (ds.covariate_names, ds.treatment_name, ds.outcome_name) == (("u", "v"), "t", "out")
    for name in ("X", "A", "Y"):
        np.testing.assert_array_equal(getattr(ds, name), getattr(full, name))
        assert not getattr(ds, name).flags.writeable


def test_round_trip_exact(tmp_path, small_dataset):
    path = tmp_path / "rt.csv"
    save_csv(small_dataset, path)
    back = load_csv(path)
    assert back.covariate_names == small_dataset.covariate_names
    assert back.X.tobytes() == small_dataset.X.tobytes()
    assert back.A.tobytes() == small_dataset.A.tobytes()
    assert back.Y.tobytes() == small_dataset.Y.tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(
    rows=st.lists(
        st.tuples(finite, finite, finite), min_size=6, max_size=15
    )
)
def test_round_trip_arbitrary_floats(tmp_path_factory, rows):
    # Alternate arms so the dataset always validates; the interesting part
    # is that 17-significant-digit formatting reproduces every float bit.
    n = len(rows)
    X = np.array([[r[0], r[1]] for r in rows])
    Y = np.array([r[2] for r in rows])
    A = np.array([float(i % 2) for i in range(n)])
    ds = ObservationalDataset(X=X, A=A, Y=Y)
    path = tmp_path_factory.mktemp("rt") / "data.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back.X.tobytes() == ds.X.tobytes()
    assert back.Y.tobytes() == ds.Y.tobytes()
