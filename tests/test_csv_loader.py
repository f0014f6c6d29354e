"""How load_csv turns tokens into floats and which error a malformed file
raises first. Every value must be the float ``_parse_cell`` gives for its
token, and a file with several faults must raise the fault met first when
the file is read row by row, each row's covariates, then its treatment,
then its outcome."""

import csv
import io

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wate.data import _parse_cell, load_csv
from wate.errors import CsvFormatError, MissingValueError

_PAD = st.text(alphabet="\t\x1c ", max_size=3)
_NUMBER = st.one_of(
    st.floats(width=64).map(lambda v: "%.17g" % v),
    st.floats(width=64).map(repr),
    st.floats(width=64).map(lambda v: "%e" % v),
    st.integers(-(10**20), 10**20).map(str),
)
_CORE = st.one_of(
    _NUMBER,
    st.tuples(st.sampled_from(["+", "-", "+-", "--"]), _NUMBER).map("".join),
    st.sampled_from([
        "1_0", "1__0", "_1", "1_", "0x10", "1e5_0", "١٢", "٣.٥", "１２", "߁", "²",
        "", "NA", "na", "N/A", "nan", "NaN", "-nan", "+NAN", ".", "null", "None",
        "inf", "-inf", "Infinity", "+iNf", "1e400", "-1e400", "1e-400", "0.0", "-0",
    ]),
    st.text(alphabet=st.characters(codec="utf-8", exclude_characters="\x00"), max_size=5),
)
TOKENS = st.builds(lambda pre, core, post: pre + core + post, _PAD, _CORE, _PAD)


def _csv_text(rows) -> str:
    # The default line end "\r\n" makes the writer quote a field holding
    # either character, so every token reads back as written.
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


@given(st.lists(st.tuples(TOKENS, TOKENS), min_size=4, max_size=12))
@example([("1", "2"), (" 3 ", "\t4"), ("\x1c5", "6\x1c"), ("nan", "1")])
@example([("1_0", "١٢"), ("1e400", "x"), ("0", "0"), ("0", "0")])
def test_every_value_is_the_float_parse_cell_gives(tmp_path_factory, rows):
    # Treatments alternate, so a file whose tokens all parse always loads.
    expected_x, expected_y, first_error = [], [], None
    for r, (tx, ty) in enumerate(rows, start=1):
        try:
            expected_x.append(_parse_cell(tx, r, "x1"))
            expected_y.append(_parse_cell(ty, r, "y"))
        except MissingValueError as exc:
            first_error = exc
            break
    path = tmp_path_factory.mktemp("tokens") / "data.csv"
    body = [("x1", "a", "y")] + [(tx, str(r % 2), ty) for r, (tx, ty) in enumerate(rows)]
    path.write_text(_csv_text(body), encoding="utf-8", newline="")
    if first_error is not None:
        with pytest.raises(MissingValueError) as info:
            load_csv(path)
        assert (type(info.value), str(info.value)) == (type(first_error), str(first_error))
        return
    ds = load_csv(path)
    assert ds.X[:, 0].tobytes() == np.array(expected_x).tobytes()
    assert ds.Y.tobytes() == np.array(expected_y).tobytes()


def _rows(n: int, bad: dict[tuple[int, int], str] | None = None, short: int = 0) -> str:
    """``n`` data rows of ``x1,x2,a,y`` (arms alternate), with ``bad[row,
    column]`` replacing a cell and data row ``short`` missing its outcome."""
    lines = ["x1,x2,a,y"]
    for r in range(1, n + 1):
        cells = [f"{r}.5", f"-{r}", str(r % 2), f"{r * 0.25}"]
        for (row, col), token in (bad or {}).items():
            if row == r:
                cells[col] = token
        if r == short:
            cells = cells[:3]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# A decoding error this many rows in lies past the first 8 KiB of text, so
# the rows before it reach the parser before the decoder fails.
_LATE = 900

MALFORMED = {
    "bad cell before a short row": (
        _rows(20, {(4, 1): "oops"}, short=9),
        MissingValueError, "cannot parse 'oops' at data row 4, column 'x2'",
    ),
    "short row before a bad cell": (
        _rows(20, {(9, 0): "oops"}, short=4),
        CsvFormatError, "{path}: data row 4 has 3 fields, expected 4",
    ),
    "outcome fault before a covariate fault": (
        _rows(20, {(3, 3): "NA", (7, 0): "oops"}),
        MissingValueError, "missing value at data row 3, column 'y'",
    ),
    "covariate fault before an outcome fault in one row": (
        _rows(20, {(5, 3): "oops", (5, 1): "inf"}),
        MissingValueError, "non-finite value at data row 5, column 'x2'",
    ),
    "non-finite value before an unparseable one": (
        _rows(20, {(6, 0): "1e400", (8, 3): "x"}),
        MissingValueError, "non-finite value at data row 6, column 'x1'",
    ),
    "treatment fault": (
        _rows(20, {(11, 2): " . "}),
        MissingValueError, "missing value at data row 11, column 'a'",
    ),
    "bad value in the last row of a file longer than one block": (
        _rows(2500, {(2500, 3): "inf"}),
        MissingValueError, "non-finite value at data row 2500, column 'y'",
    ),
    "short last row of a file longer than one block": (
        _rows(2500, short=2500),
        CsvFormatError, "{path}: data row 2500 has 3 fields, expected 4",
    ),
    "bad cell before a decoding error": (
        _rows(_LATE, {(10, 1): "oops", (_LATE, 0): "\udcff"}),
        MissingValueError, "cannot parse 'oops' at data row 10, column 'x2'",
    ),
    "decoding error": (
        _rows(_LATE, {(_LATE, 0): "\udcff"}),
        CsvFormatError,
        "{path}: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 503: "
        "invalid start byte)",
    ),
    "bad cell before an oversized field": (
        _rows(20, {(3, 0): "", (12, 1): "9" * 200_000}),
        MissingValueError, "missing value at data row 3, column 'x1'",
    ),
    "oversized field": (
        _rows(20, {(12, 1): "9" * 200_000}),
        csv.Error, "field larger than field limit (131072)",
    ),
    "CRLF line ends with a missing outcome": (
        _rows(20, {(7, 3): ""}).replace("\n", "\r\n"),
        MissingValueError, "missing value at data row 7, column 'y'",
    ),
    "byte order mark with a short row": (
        "\ufeff" + _rows(20, short=2),
        CsvFormatError, "{path}: data row 2 has 3 fields, expected 4",
    ),
    "quoted numbers with a quoted bad cell": (
        _rows(20, {(2, 0): '" 1.5 "', (3, 1): '"1,5"'}),
        MissingValueError, "cannot parse '1,5' at data row 3, column 'x2'",
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_a_malformed_file_raises_its_first_fault(tmp_path, case):
    text, error, message = MALFORMED[case]
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(error) as info:
        load_csv(path)
    assert type(info.value) is error
    assert str(info.value) == message.format(path=path)


WELL_FORMED = {
    "CRLF line ends": _rows(20).replace("\n", "\r\n"),
    "byte order mark": "\ufeff" + _rows(20),
    "quoted numbers": _rows(20, {(1, 0): '" 1.5 "', (2, 1): '"-2"', (3, 3): '"\t0.75"'}),
}


@pytest.mark.parametrize("case", list(WELL_FORMED))
def test_format_variants_load_the_plain_values(tmp_path, case):
    plain, variant = tmp_path / "plain.csv", tmp_path / "variant.csv"
    plain.write_text(_rows(20), encoding="utf-8", newline="")
    variant.write_text(WELL_FORMED[case], encoding="utf-8", newline="")
    expected, got = load_csv(plain), load_csv(variant)
    assert got.covariate_names == ("x1", "x2")
    for name in ("X", "A", "Y"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()
