"""Design matrices built from named covariate terms.

A :class:`DesignSpec` is an ordered tuple of terms, each mapping the raw
covariate matrix to one column. Terms are small frozen dataclasses so that
specs can be pickled into worker processes unchanged. The intercept is never
part of a spec; model fitting prepends it.

Specs can be written as text, e.g. ``"x1 + x2^2 + x3*x5"``: a sum of
products of powers of named columns. That grammar covers every working
model used here and by the command line interface.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import DesignError

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")


@dataclass(frozen=True)
class MonomialTerm:
    """Product of integer powers of covariate columns.

    ``powers`` holds (column index, exponent) pairs, sorted by column, e.g.
    x2^2 * x5 over a 5-column matrix is ``((1, 2), (4, 1))``. A term of
    one linear factor, e.g. ``x1``, returns the column of ``X`` itself, a
    view, not a copy.
    """

    name: str
    powers: tuple[tuple[int, int], ...]

    def __call__(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        # The product starts at the first factor, and a linear factor is the
        # column itself: 1.0*x and x**1 are x, bit for bit.
        out = None
        for col, exp in self.powers:
            if col >= X.shape[1]:
                raise DesignError(
                    f"term {self.name!r} refers to column index {col} but the "
                    f"covariate matrix has only {X.shape[1]} columns"
                )
            factor = X[:, col] if exp == 1 else X[:, col] ** exp
            out = factor if out is None else out * factor
        return np.ones(X.shape[0]) if out is None else out


@dataclass(frozen=True)
class TransformTerm:
    """Arbitrary column computed by a callable (must be picklable if the spec
    is shipped to worker processes: a module-level function or a frozen
    callable dataclass). On a stack of replicates it is called once per
    replicate, on that replicate's (n, p) rows, so it may read every row of
    its replicate, e.g. to centre a column."""

    name: str
    fn: Callable[[NDArray[np.float64]], NDArray[np.float64]]

    def __call__(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        col = np.asarray(self.fn(X), dtype=np.float64)
        if col.shape != (X.shape[0],):
            raise DesignError(
                f"term {self.name!r} returned shape {col.shape}, expected ({X.shape[0]},)"
            )
        return col


Term = MonomialTerm | TransformTerm


@dataclass(frozen=True)
class DesignSpec:
    """Ordered collection of terms; evaluation order equals term order."""

    terms: tuple[Term, ...]

    def matrix(
        self, X: NDArray[np.float64], out: NDArray[np.float64] | None = None
    ) -> NDArray[np.float64]:
        """The ``(n, len(self))`` design, column j from term j, evaluated
        straight into ``out`` when given (e.g. the design block of a model
        matrix, so the columns are never stacked and copied), else into a
        new array. Returns the array written.

        ``X`` may also be a (b, n, p) stack of replicates, giving a (b, n,
        len(self)) design: each :class:`MonomialTerm` is evaluated once, on
        the (b*n, p) rows, and each :class:`TransformTerm` once per
        replicate. An elementwise product gets the same bits in any shape,
        so each replicate gets the values it gets alone.

        A design with a NaN or infinite value, e.g. a square that overflows,
        raises :class:`DesignError` naming the first such term and its first
        (1-based) rows, of the first such replicate of a stack; the overflow
        itself warns nothing."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if out is None:
            out = np.empty((*X.shape[:-1], len(self.terms)))
        # The row count is given: -1 cannot be resolved when p = 0.
        rows = X.reshape(math.prod(X.shape[:-1]), X.shape[-1])
        with np.errstate(over="ignore", invalid="ignore"):
            for j, term in enumerate(self.terms):
                if X.ndim == 3 and isinstance(term, TransformTerm):
                    for x, column in zip(X, out[..., j]):
                        column[...] = term(x)
                else:
                    out[..., j] = term(rows).reshape(X.shape[:-1])
        if not np.isfinite(out).all():
            for block in out.reshape(-1, *out.shape[-2:]):
                for name, column in zip(self.names, block.T):
                    bad = np.flatnonzero(~np.isfinite(column))
                    if bad.size:
                        listed = ", ".join(str(int(r) + 1) for r in bad[:5])
                        more = ", ..." if bad.size > 5 else ""
                        raise DesignError(f"term {name!r} is not finite (rows {listed}{more})")
        return out

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.terms)

    def __len__(self) -> int:
        return len(self.terms)


def intercept_only() -> DesignSpec:
    """Spec with no terms at all; the fitted model keeps just the intercept."""
    return DesignSpec(terms=())


def main_effects(names: Sequence[str]) -> DesignSpec:
    """One linear term per covariate, in the given order."""
    terms = tuple(
        MonomialTerm(name=n, powers=((j, 1),)) for j, n in enumerate(names)
    )
    return DesignSpec(terms=terms)


def _canonical_name(powers: tuple[tuple[int, int], ...], names: Sequence[str]) -> str:
    parts = []
    for col, exp in powers:
        parts.append(names[col] if exp == 1 else f"{names[col]}^{exp}")
    return "*".join(parts)


def monomial(names: Sequence[str], **powers_by_name: int) -> MonomialTerm:
    """Build a monomial term from covariate names, e.g.
    ``monomial(names, x2=2)`` or ``monomial(names, x3=1, x5=1)``."""
    index = {n: j for j, n in enumerate(names)}
    pairs = []
    for name, exp in powers_by_name.items():
        if name not in index:
            raise DesignError(f"unknown covariate {name!r}; available: {list(names)}")
        pairs.append((index[name], int(exp)))
    pairs.sort()
    pw = tuple(pairs)
    return MonomialTerm(name=_canonical_name(pw, names), powers=pw)


def parse_design(expression: str, names: Sequence[str]) -> DesignSpec:
    """Parse ``"x1 + x2^2 + x3*x5"`` against the given covariate names.

    Grammar: a ``+``-separated list of terms; each term is a ``*``-separated
    product of factors; each factor is a column name with an optional
    positive integer power ``name^k``. Repeated columns inside one term
    multiply together (``x1*x1`` is ``x1^2``). An empty or all-whitespace
    expression yields the empty (intercept-only) spec.
    """
    index = {n: j for j, n in enumerate(names)}
    text = expression.strip()
    if not text:
        return intercept_only()
    terms: list[MonomialTerm] = []
    for raw_term in text.split("+"):
        term = raw_term.strip()
        if not term:
            raise DesignError(f"empty term in design expression {expression!r}")
        exponents: dict[int, int] = {}
        for raw_factor in term.split("*"):
            factor = raw_factor.strip()
            if not factor:
                raise DesignError(f"empty factor in term {term!r}")
            if "^" in factor:
                base, _, pow_text = factor.partition("^")
                base = base.strip()
                pow_text = pow_text.strip()
                if not re.fullmatch(r"\d+", pow_text):
                    raise DesignError(
                        f"exponent {pow_text!r} in factor {factor!r} is not a positive integer"
                    )
                exponent = int(pow_text)
                if exponent < 1:
                    raise DesignError(f"exponent must be >= 1 in factor {factor!r}")
            else:
                base, exponent = factor, 1
            if not _NAME_RE.match(base):
                raise DesignError(f"cannot parse column name {base!r} in {term!r}")
            if base not in index:
                raise DesignError(
                    f"unknown column {base!r} in design expression; available: {list(names)}"
                )
            col = index[base]
            exponents[col] = exponents.get(col, 0) + exponent
        powers = tuple(sorted(exponents.items()))
        terms.append(MonomialTerm(name=_canonical_name(powers, names), powers=powers))
    return DesignSpec(terms=tuple(terms))
