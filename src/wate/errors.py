"""Exception hierarchy.

Everything raised deliberately by this package derives from :class:`WateError`,
so callers (and the bootstrap loop, which drops failing replicates) can catch
one base class without swallowing programming errors.
"""

from __future__ import annotations


class WateError(Exception):
    """Base class for all errors raised by this package."""


class DataError(WateError):
    """A dataset failed validation."""


class MissingValueError(DataError):
    """A CSV cell was empty or not parseable as a finite number, or a
    dataset array holds a non-finite value."""


class NonBinaryTreatmentError(DataError):
    """The treatment column contains values other than 0 and 1."""


class DegenerateArmError(DataError):
    """One treatment arm has fewer than two observations."""


class CsvFormatError(DataError):
    """Structural problem with a CSV file (header, column count, duplicates)."""


class MissingColumnError(CsvFormatError):
    """A column named by the caller is not in the CSV header."""


class DesignError(WateError):
    """A design specification cannot be evaluated (bad expression, unknown
    column, column index outside the covariate matrix)."""


class ModelFitError(WateError):
    """A working model could not be fitted."""


class RankDeficiencyError(ModelFitError):
    """The design matrix is numerically rank deficient."""


class FitFailure(ModelFitError):
    """A cell could not be estimated because a working model it reads failed
    to fit; ``error`` is what the fitter raised."""

    def __init__(self, stage: str, error: WateError):
        super().__init__(f"{stage} fit failed: {error}")
        self.error = error


class ConvergenceError(ModelFitError):
    """Iterative fitting stopped without meeting the convergence criterion.

    The partially fitted model (last iterate) is attached as ``model`` so
    diagnostics stay inspectable.
    """

    def __init__(self, message: str, model=None):
        super().__init__(message)
        self.model = model


class TargetError(WateError):
    """A target function could not be evaluated."""


class PropensityRequiredError(TargetError):
    """The target function depends on the propensity score but none was given."""


class NegativeTargetError(TargetError):
    """The target function evaluated to a negative weight somewhere."""


class EstimationError(WateError):
    """An estimator could not produce a finite value (zero weight mass,
    empty arm, invalid estimator/estimand pairing)."""


class MissingModelError(EstimationError):
    """The requested estimator needs a fitted model that was not supplied."""


class BootstrapError(WateError):
    """The bootstrap failed on too many replicates to report a standard error."""


class WorkerError(WateError):
    """A worker process of the parallel map exited without sending back the
    results of its chunk (killed, crashed, or its results did not pickle)."""
