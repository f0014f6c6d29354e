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


def test_validate_sample_size_floor():
    # n = 3 with five covariates: too small outright, and with only one
    # control the arm check fires as well.
    ds = ObservationalDataset(
        X=np.arange(15.0).reshape(3, 5), A=np.array([0.0, 1, 1]), Y=np.zeros(3)
    )
    problems = validate(ds)
    assert any("p + 2" in p for p in problems)


def test_validate_isolated_sample_size_violation():
    rng = np.random.default_rng(1)
    ds = ObservationalDataset(
        X=rng.normal(size=(5, 4)),
        A=np.array([0.0, 0, 1, 1, 1]),
        Y=np.zeros(5),
    )
    problems = validate(ds)
    assert len(problems) == 1 and "p + 2" in problems[0]


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


def test_replace_rows_resamples(small_dataset):
    idx = np.array([0, 0, 1, 2, 3, 3])
    sub = small_dataset.replace_rows(idx)
    assert sub.n == 6
    np.testing.assert_array_equal(sub.Y, small_dataset.Y[idx])
    assert sub.covariate_names == small_dataset.covariate_names
    assert type(sub) is ObservationalDataset
    for arr in (sub.X, sub.A, sub.Y):
        assert arr.flags.c_contiguous and not arr.flags.writeable
    np.testing.assert_array_equal(sub.X, small_dataset.X[idx])
    np.testing.assert_array_equal(sub.A, small_dataset.A[idx])


@pytest.mark.parametrize(
    "idx",
    [
        np.array([4, 0, 0, 9, 2]),
        np.arange(12) % 3 == 0,
        slice(2, 8),
        slice(1, 11, 3),
    ],
    ids=["int-array", "bool-mask", "slice", "strided-slice"],
)
def test_replace_rows_index_kinds(idx):
    X = np.arange(36.0).reshape(12, 3)
    A = np.arange(12) % 2.0
    Y = np.linspace(-1.0, 1.0, 12)
    source = ObservationalDataset(X=X, A=A, Y=Y)
    before = [arr.copy() for arr in (source.X, source.A, source.Y)]
    sub = source.replace_rows(idx)
    for got, full in zip((sub.X, sub.A, sub.Y), (X, A, Y)):
        np.testing.assert_array_equal(got, full[idx])
        assert got.flags.c_contiguous and not got.flags.writeable
    for arr, old in zip((source.X, source.A, source.Y), before):
        np.testing.assert_array_equal(arr, old)
        assert not arr.flags.writeable
