"""Exception hierarchy shared across the package.

Data-validation errors signal problems with user input; estimation errors
signal numerical failure of a fit. The CLI maps the two groups to distinct
exit codes.
"""

from __future__ import annotations


class TvelastError(Exception):
    """Base class for all package-specific errors."""


# --- data / validation -------------------------------------------------------


class DataError(TvelastError):
    """Invalid or malformed input data."""


class MissingValue(DataError):
    """A cell that must be numeric is empty or unparseable."""


class GapInDates(DataError):
    """Consecutive rows are not consecutive calendar months."""


class DuplicateDate(DataError):
    """The same month appears more than once."""


class NonPositiveLevel(DataError):
    """A level observation is zero or negative, so its log is undefined."""


class TooShort(DataError):
    """The series has too few observations for the requested operation."""


class OutOfRange(DataError):
    """A requested window or date lies outside the series span."""


# --- estimation ---------------------------------------------------------------


class EstimationError(TvelastError):
    """Numerical failure while estimating a model."""


class DegenerateRegressor(EstimationError):
    """The regressor carries no usable variation (e.g. sum of squares is 0)."""


class LengthMismatch(EstimationError):
    """Paired series do not have equal length."""


class DegenerateDesign(EstimationError):
    """The regression design matrix is rank deficient."""


class UnsupportedCase(EstimationError):
    """No embedded table covers the requested configuration."""


class EmptySeries(EstimationError):
    """A state-space model was built over zero observations."""


class NonFiniteState(EstimationError):
    """The filter recursion overflowed to a non-finite state."""


class NonFiniteObjective(EstimationError):
    """The likelihood is non-finite at the starting point."""


class NoConvergence(EstimationError):
    """The optimizer hit its iteration cap before meeting the tolerance.

    Carries the best iterate found so far in ``result`` (may be None when
    the failure happened before any iterate was accepted).
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


# --- pipeline -----------------------------------------------------------------


class StageError(TvelastError):
    """A pipeline stage failed; names the stage and keeps the cause chained."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage


class SectionMissing(TvelastError):
    """A report section required for the requested output was not computed."""
