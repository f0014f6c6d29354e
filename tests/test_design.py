import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wate.design import (
    DesignSpec,
    MonomialTerm,
    TransformTerm,
    intercept_only,
    main_effects,
    monomial,
    parse_design,
)
from wate.errors import DesignError

NAMES = ("x1", "x2", "x3", "x4", "x5")


def test_parse_basic():
    spec = parse_design("x1 + x2^2 + x3*x5", NAMES)
    assert spec.names == ("x1", "x2^2", "x3*x5")
    X = np.array([[1.0, 2, 3, 4, 5], [-1, 0.5, 2, 0, -2]])
    M = spec.matrix(X)
    np.testing.assert_allclose(M[:, 0], X[:, 0])
    np.testing.assert_allclose(M[:, 1], X[:, 1] ** 2)
    np.testing.assert_allclose(M[:, 2], X[:, 2] * X[:, 4])


def test_parse_whitespace_insensitive():
    a = parse_design("x1+x2 ^ 2", NAMES)
    b = parse_design(" x1 + x2^2 ", NAMES)
    assert a.names == b.names


def test_repeated_factor_merges():
    assert parse_design("x1*x1", NAMES).names == ("x1^2",)
    assert parse_design("x2*x1*x2", NAMES).names == ("x1*x2^2",)


def test_parse_empty_is_intercept_only():
    assert parse_design("", NAMES).terms == ()
    assert parse_design("   ", NAMES).terms == ()
    assert intercept_only().matrix(np.ones((3, 2))).shape == (3, 0)


def test_unknown_column():
    with pytest.raises(DesignError, match="unknown column 'z'"):
        parse_design("x1 + z", NAMES)


def test_bad_exponent():
    with pytest.raises(DesignError):
        parse_design("x1^0", NAMES)
    with pytest.raises(DesignError):
        parse_design("x1^-2", NAMES)
    with pytest.raises(DesignError):
        parse_design("x1^a", NAMES)


def test_empty_term():
    with pytest.raises(DesignError):
        parse_design("x1 + + x2", NAMES)
    with pytest.raises(DesignError):
        parse_design("x1 * * x2", NAMES)


def test_main_effects_identity():
    spec = main_effects(("u", "v"))
    X = np.array([[1.0, 2], [3, 4], [5, 6]])
    np.testing.assert_array_equal(spec.matrix(X), X)
    assert spec.names == ("u", "v")


def test_monomial_builder():
    t = monomial(NAMES, x3=1, x5=1)
    assert t.name == "x3*x5"
    t2 = monomial(NAMES, x2=2)
    assert t2.name == "x2^2"
    with pytest.raises(DesignError):
        monomial(NAMES, z=1)


def test_column_index_out_of_range():
    spec = parse_design("x5", NAMES)
    with pytest.raises(DesignError, match="only (3|three) columns"):
        spec.matrix(np.ones((2, 3)))


def test_transform_term():
    t = TransformTerm(name="expo", fn=_expo)
    spec = DesignSpec(terms=(t,))
    X = np.array([[0.0, 1], [1, 2]])
    np.testing.assert_allclose(spec.matrix(X)[:, 0], np.exp(X[:, 0]))


def test_transform_term_bad_shape():
    spec = DesignSpec(terms=(TransformTerm(name="bad", fn=_bad_shape),))
    with pytest.raises(DesignError, match="shape"):
        spec.matrix(np.ones((3, 2)))


def _expo(X):
    return np.exp(X[:, 0])


def _bad_shape(X):
    return np.ones((X.shape[0], 2))


def test_specs_pickle():
    spec = parse_design("x1 + x2^2 + x3*x5", NAMES)
    spec2 = DesignSpec(terms=(TransformTerm(name="expo", fn=_expo),))
    for s in (spec, spec2):
        copy = pickle.loads(pickle.dumps(s))
        X = np.arange(10.0).reshape(2, 5)
        np.testing.assert_array_equal(copy.matrix(X), s.matrix(X))


@given(
    powers=st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 3)), min_size=1, max_size=3
    ),
    data=st.lists(
        st.tuples(*[st.floats(-3, 3) for _ in range(4)]), min_size=2, max_size=6
    ),
)
def test_monomial_matches_loop(powers, data):
    merged: dict[int, int] = {}
    for col, exp in powers:
        merged[col] = merged.get(col, 0) + exp
    term = MonomialTerm(name="t", powers=tuple(sorted(merged.items())))
    X = np.array(data)
    expected = [
        float(np.prod([row[c] ** e for c, e in merged.items()])) for row in X
    ]
    np.testing.assert_allclose(term(X), expected, rtol=1e-12, atol=1e-12)


def test_a_non_finite_term_is_refused_by_name_and_rows():
    # A finite covariate whose square overflows: the design names the term
    # and its first rows instead of handing inf to a fitter, and warns
    # nothing (the test configuration makes a RuntimeWarning an error).
    X = np.ones((8, 2))
    X[[2, 6], 0] = 1e200
    spec = parse_design("x2 + x1^2 + x1", ("x1", "x2"))
    with pytest.raises(DesignError, match=r"^term 'x1\^2' is not finite \(rows 3, 7\)$"):
        spec.matrix(X)
    X[:, 1] = np.inf
    first_five = r"^term 'x2' is not finite \(rows 1, 2, 3, 4, 5, \.\.\.\)$"
    with pytest.raises(DesignError, match=first_five):
        spec.matrix(X)
    assert np.isfinite(spec.matrix(np.ones((3, 2)))).all()


def test_a_stack_gets_each_replicates_design_and_first_error():
    # A (b, n, p) stack is evaluated as each of its replicates alone: the
    # monomials on the rows of the whole stack, a term that reads every row
    # (x1 centred) once per replicate.
    X = np.random.default_rng(4).standard_normal((3, 6, 2))
    spec = DesignSpec(terms=(
        *parse_design("x2 + x1^2 + x1*x2", ("x1", "x2")).terms,
        TransformTerm(name="x1 - mean(x1)", fn=lambda x: x[:, 0] - x[:, 0].mean()),
    ))
    stacked = spec.matrix(X)
    assert stacked.shape == (3, 6, 4)
    assert [m.tobytes() for m in stacked] == [spec.matrix(x).tobytes() for x in X]
    # The error names the rows of the first replicate that has one.
    X[2, 4, 0] = X[1, 2, 0] = 1e200
    with pytest.raises(DesignError, match=r"^term 'x1\^2' is not finite \(rows 3\)$"):
        spec.matrix(X)
