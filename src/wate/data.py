"""Datasets and CSV round-tripping.

An :class:`ObservationalDataset` is the unit every fitting and estimation
routine consumes: an ``(n, p)`` covariate matrix, a binary treatment vector
and an outcome vector, all float64 and frozen read-only after construction.
:class:`CounterfactualDataset` extends it with both potential outcomes and
the true propensity, which only a simulator can know. The study and the
bootstrap fit and fill a private ``_Stack`` of b same-n replicates instead:
the plain triple ``X`` (b, n, p) and ``A``, ``Y`` (b, n), built only from
checked data and not checked again.

:func:`load_csv` converts a block of rows at a time: it checks the width of
every row of the block, transposes it and turns its needed columns into
floats with one ``numpy.fromiter`` call. A block that fails any check, and
the rows read before the CSV reader itself fails, are read again row by
row with :func:`_parse_cell`, so a malformed file raises the first fault a
row-by-row read meets, and a token only ``_parse_cell`` accepts (padded
with U+001C to U+001F) still loads.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    ColumnRoleError,
    CsvFormatError,
    DataError,
    DegenerateArmError,
    MissingColumnError,
    MissingValueError,
    NonBinaryTreatmentError,
)

_MISSING_TOKENS = {"", "na", "nan", "null", "none", "."}

# Rows load_csv converts at a time: numpy converts each block in one call,
# and the tokens held at once stay few, so a load takes less memory than
# the file's values as Python floats would.
_BLOCK_ROWS = 1024

# Smallest arm a loaded dataset may have.
_MIN_ARM = 2

# Formatting with 17 significant digits makes float64 -> text -> float64 exact.
_FLOAT_FMT = "%.17g"


def _freeze(arr: NDArray[np.float64]) -> NDArray[np.float64]:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out is arr and arr.flags.writeable:
        out = arr.copy()
    out.flags.writeable = False
    return out


def _refuse_non_finite(named: Sequence[tuple[str, NDArray[np.float64]]]) -> None:
    """Raise :class:`MissingValueError` naming every array with a NaN or
    infinite value and its first few (1-based) rows."""
    problems = []
    for name, arr in named:
        finite = np.isfinite(arr)
        if not finite.all():
            rows = np.unique(np.nonzero(~finite)[0])[:5] + 1
            listed = ", ".join(str(int(r)) for r in rows)
            problems.append(f"non-finite values in {name} (rows {listed}, ...)")
    if problems:
        raise MissingValueError("; ".join(problems))


@dataclass(frozen=True, eq=False)
class ObservationalDataset:
    """Covariates, binary treatment and observed outcome for n >= 1
    subjects. No rows, a non-finite value anywhere and a treatment value
    other than 0/1 are refused; :func:`validate` reports the other
    problems."""

    X: NDArray[np.float64]
    A: NDArray[np.float64]
    Y: NDArray[np.float64]
    covariate_names: tuple[str, ...] = ()
    treatment_name: str = "a"
    outcome_name: str = "y"

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        A = np.asarray(self.A, dtype=np.float64).ravel()
        Y = np.asarray(self.Y, dtype=np.float64).ravel()
        if X.shape[0] != A.shape[0] or A.shape[0] != Y.shape[0]:
            raise DataError(
                f"inconsistent lengths: X has {X.shape[0]} rows, "
                f"A has {A.shape[0]}, Y has {Y.shape[0]}"
            )
        if A.shape[0] == 0:
            raise DataError("a dataset needs at least one row, got none")
        _refuse_non_finite(
            (("covariates", X), (self.treatment_name, A), (self.outcome_name, Y))
        )
        extra = (A != 0.0) & (A != 1.0)
        if extra.any():
            raise NonBinaryTreatmentError(
                f"treatment column {self.treatment_name!r} contains values other than 0/1: "
                + ", ".join(_FLOAT_FMT % v for v in np.unique(A[extra])[:5])
            )
        names = tuple(self.covariate_names)
        if not names:
            names = tuple(f"x{j + 1}" for j in range(X.shape[1]))
        if len(names) != X.shape[1]:
            raise DataError(
                f"{len(names)} covariate names for {X.shape[1]} columns"
            )
        object.__setattr__(self, "X", _freeze(X))
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "Y", _freeze(Y))
        object.__setattr__(self, "covariate_names", names)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def n_treated(self) -> int:
        return int(np.sum(self.A == 1.0))

    @property
    def n_control(self) -> int:
        return int(np.sum(self.A == 0.0))


# Rows of data per stack of replicates: the study and the bootstrap draw or
# gather, fit and fill ``_stack_size(_BATCH_ROWS, n)`` replicates at a time,
# the fewest that hold at least 12288 rows (12288 to 24575 rows for n <=
# 12288), which pays numpy's fixed cost per call once per stack. With only
# the IRLS stacked, 8 replicates at n = 1000 gained no more than 4; with the
# outcome fits, the fill and the data path stacked too, 8192 rows took about
# 10% off a study's wall time against 4096, at 2-3% more peak memory.
# Rounding up made an n = 5000 bootstrap fit its refits in pairs, which took
# 8% off its wall time against one at a time, at 1% more peak memory. With
# an IRLS that allocates its vectors once per stack, 12288 rows against 8192
# (stacks of 13 rather than 9 at n = 1000, threes rather than pairs at n =
# 5000) took 3.5% off the 50-replicate study at n = 1000 and 5.2% off the
# n = 5000 bootstrap (10 of 10 pairs each), at 2.5% and 0.8% more peak
# memory (x86-64, one BLAS thread); 16384 rows raised the study's peak by
# 6%. An outcome fit works through its stack in parts sized by the same
# rule from a third as many rows (see wate.models). From n = 12288 a stack
# holds one replicate.
_BATCH_ROWS = 12288


def _stack_size(rows: int, n: int) -> int:
    """The fewest replicates of ``n`` rows that hold at least ``rows`` rows,
    and at least one."""
    return max(1, -(-rows // n))


def _replicate_rng(seed: int, i: int) -> np.random.Generator:
    """The stream of replicate ``i`` of a study or a bootstrap seeded by
    ``seed``: child ``i`` of the seed's ``SeedSequence``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))


class _Stack(NamedTuple):
    """b replicates of n rows each, the unit the study and the bootstrap fit
    and fill: ``X`` is (b, n, p), ``A`` and ``Y`` are (b, n). It is built
    only from checked data, the rows of an :class:`ObservationalDataset`
    (:meth:`of`, :meth:`gather`) or the study's finite 0/1 draws, and is not
    checked again."""

    X: NDArray[np.float64]
    A: NDArray[np.float64]
    Y: NDArray[np.float64]

    @classmethod
    def of(cls, ds: ObservationalDataset) -> "_Stack":
        """``ds`` as a stack of one, made of views."""
        return cls(ds.X[None], ds.A[None], ds.Y[None])

    @classmethod
    def gather(cls, ds: ObservationalDataset, idx: NDArray[np.intp]) -> "_Stack":
        """The rows ``idx[i]`` of ``ds`` as replicate i, for a (b, n) index
        stack, from one ``numpy.take`` per array: the one resampler."""
        return cls(np.take(ds.X, idx, axis=0), np.take(ds.A, idx), np.take(ds.Y, idx))


@dataclass(frozen=True, eq=False)
class CounterfactualDataset(ObservationalDataset):
    """Simulated dataset that also carries both potential outcomes and the
    true propensity score, so population estimands can be checked exactly.
    Non-finite values in any of the three are refused like the observed ones."""

    y1: NDArray[np.float64] = field(default_factory=lambda: np.empty(0))
    y0: NDArray[np.float64] = field(default_factory=lambda: np.empty(0))
    pi_true: NDArray[np.float64] = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        super().__post_init__()
        y1 = np.asarray(self.y1, dtype=np.float64).ravel()
        y0 = np.asarray(self.y0, dtype=np.float64).ravel()
        pi = np.asarray(self.pi_true, dtype=np.float64).ravel()
        n = self.X.shape[0]
        if y1.shape[0] != n or y0.shape[0] != n or pi.shape[0] != n:
            raise DataError("potential outcome arrays must have length n")
        _refuse_non_finite((("y1", y1), ("y0", y0), ("pi_true", pi)))
        # Written so that NaN fails it too.
        if not np.all((pi > 0.0) & (pi < 1.0)):
            raise DataError("true propensity must lie strictly in (0, 1)")
        observed = np.where(self.A == 1.0, y1, y0)
        if not np.array_equal(observed, self.Y):
            raise DataError("Y must equal the potential outcome of the arm taken")
        object.__setattr__(self, "y1", _freeze(y1))
        object.__setattr__(self, "y0", _freeze(y0))
        object.__setattr__(self, "pi_true", _freeze(pi))

    def observed(self) -> ObservationalDataset:
        """Strip the counterfactual columns, keeping only what an analyst sees."""
        return ObservationalDataset(
            X=self.X,
            A=self.A,
            Y=self.Y,
            covariate_names=self.covariate_names,
            treatment_name=self.treatment_name,
            outcome_name=self.outcome_name,
        )


def validate(ds: ObservationalDataset) -> list[str]:
    """Return a list of human-readable violations (empty when the dataset is
    usable). Checks minimum arm sizes and the n >= p + 2 sample size floor;
    a dataset's values are finite and its treatment binary by construction."""
    problems: list[str] = []
    if ds.n_treated < _MIN_ARM:
        problems.append(f"treated arm has {ds.n_treated} observations (need >= {_MIN_ARM})")
    if ds.n_control < _MIN_ARM:
        problems.append(f"control arm has {ds.n_control} observations (need >= {_MIN_ARM})")
    if ds.n < ds.p + 2:
        problems.append(f"n = {ds.n} is below the floor p + 2 = {ds.p + 2}")
    return problems


def _raise_for_violations(ds: ObservationalDataset) -> None:
    problems = validate(ds)
    if not problems:
        return
    degenerate = min(ds.n_treated, ds.n_control) < _MIN_ARM
    raise (DegenerateArmError if degenerate else DataError)("; ".join(problems))


def _parse_cell(token: str, row: int, column: str) -> float:
    stripped = token.strip()
    if stripped.lower() in _MISSING_TOKENS:
        raise MissingValueError(f"missing value at data row {row}, column {column!r}")
    try:
        value = float(stripped)
    except ValueError:
        raise MissingValueError(
            f"cannot parse {token!r} at data row {row}, column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise MissingValueError(f"non-finite value at data row {row}, column {column!r}")
    return value


def _parse_rows(
    records: list[list[str]],
    first_row: int,
    width: int,
    columns: list[tuple[str, int]],
    path: str | os.PathLike,
) -> NDArray[np.float64]:
    """The cells of ``columns`` (name, field index) in ``records`` (data rows
    ``first_row``, ...) as a (len(columns), len(records)) block, converted
    cell by cell. Raises the first fault a row-by-row read meets: a row that
    is not ``width`` fields wide, or a cell :func:`_parse_cell` refuses."""
    values = []
    for r, record in enumerate(records, start=first_row):
        if len(record) != width:
            raise CsvFormatError(
                f"{path}: data row {r} has {len(record)} fields, expected {width}"
            )
        values.append([_parse_cell(record[i], r, name) for name, i in columns])
    return np.array(values, dtype=np.float64).reshape(len(records), len(columns)).T


def _convert_block(
    records: list[list[str]], width: int, columns: list[tuple[str, int]]
) -> NDArray[np.float64] | None:
    """The cells of ``columns`` (name, field index) in ``records`` as a
    (len(columns), len(records)) block, each value from ``float(token)``,
    the float :func:`_parse_cell` gives; None when a row is not ``width``
    fields wide, a token does not parse or a value is not finite. ``float``
    strips the whitespace ``str.strip`` does except U+001C to U+001F, so a
    token padded with those gets None here and its value from
    :func:`_parse_rows`."""
    if set(map(len, records)) != {width}:
        return None
    fields = list(zip(*records))
    tokens = chain.from_iterable(fields[i] for _, i in columns)
    try:
        block = np.fromiter(map(float, tokens), np.float64, len(columns) * len(records))
    except ValueError:
        return None
    if not np.isfinite(block).all():
        return None
    return block.reshape(len(columns), len(records))


def _decoded_lines(fh: Iterable[str], path: str | os.PathLike) -> Iterator[str]:
    """The lines of a text file, with a decoding error raised as a
    :class:`CsvFormatError` naming the file."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc})") from None


def load_csv(
    path: str | os.PathLike,
    treatment: str = "a",
    outcome: str = "y",
    covariates: Sequence[str] | None = None,
) -> ObservationalDataset:
    """Read a headered CSV into a validated :class:`ObservationalDataset`.

    ``covariates`` restricts (and orders) the covariate columns; by default
    every column other than the treatment and outcome is used, in file order.
    One column named as both the treatment and the outcome, and a covariate
    that is the treatment or the outcome or is named twice, are refused
    before any row is read. The file is read as UTF-8, with a leading byte
    order mark dropped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(_decoded_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise CsvFormatError(f"{path}: duplicate column names in header")
        for required in (treatment, outcome):
            if required not in header:
                raise MissingColumnError(
                    f"{path}: column {required!r} not found (header: {header})"
                )
        if treatment == outcome:
            raise ColumnRoleError(
                f"{path}: column {treatment!r} is both the treatment and the outcome"
            )
        if covariates is None:
            cov_names = [h for h in header if h not in (treatment, outcome)]
        else:
            cov_names = []
            for c in covariates:
                if c in (treatment, outcome):
                    role = "treatment" if c == treatment else "outcome"
                    raise ColumnRoleError(
                        f"{path}: covariate column {c!r} is the {role} column"
                    )
                if c in cov_names:
                    raise ColumnRoleError(f"{path}: covariate column {c!r} is named twice")
                if c not in header:
                    raise MissingColumnError(f"{path}: covariate column {c!r} not found")
                cov_names.append(c)
        width = len(header)
        columns = [(c, header.index(c)) for c in (*cov_names, treatment, outcome)]
        blocks: list[NDArray[np.float64]] = []
        n = 0
        while True:
            records: list[list[str]] = []
            try:
                # On an error, extend keeps the records read before it.
                records.extend(islice(reader, _BLOCK_ROWS))
            except (CsvFormatError, csv.Error):
                _parse_rows(records, n + 1, width, columns, path)
                raise
            if not records:
                break
            block = _convert_block(records, width, columns)
            if block is None:
                block = _parse_rows(records, n + 1, width, columns, path)
            blocks.append(block)
            n += len(records)
    if not blocks:
        raise CsvFormatError(f"{path}: no data rows")
    values = np.concatenate(blocks, axis=1)
    p = len(cov_names)
    ds = ObservationalDataset(
        X=values[:p].T,
        A=values[p],
        Y=values[p + 1],
        covariate_names=tuple(cov_names),
        treatment_name=treatment,
        outcome_name=outcome,
    )
    _raise_for_violations(ds)
    return ds


def save_csv(ds: ObservationalDataset, path: str | os.PathLike) -> None:
    """Write the dataset with covariates first, then treatment, then outcome.

    Floats are written with 17 significant digits so a load/save/load cycle
    reproduces every bit.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.covariate_names) + [ds.treatment_name, ds.outcome_name])
        for i in range(ds.n):
            row = [_FLOAT_FMT % v for v in ds.X[i]]
            row.append(_FLOAT_FMT % ds.A[i])
            row.append(_FLOAT_FMT % ds.Y[i])
            writer.writerow(row)
