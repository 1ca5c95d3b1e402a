"""Exception hierarchy shared by all modules.

Every library-raised error derives from :class:`PotdError` so callers can
catch the whole family; the concrete classes distinguish usage errors
(bad inputs, malformed files) from numerical failures.
"""


class PotdError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PotdError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateInputError(PotdError, ValueError):
    """Input is structurally valid but numerically degenerate
    (rank-deficient covariance, all-zero spectrum)."""


class ConvergenceError(PotdError, RuntimeError):
    """An iterative solver hit its iteration budget before reaching
    the requested tolerance."""

    def __init__(self, message, iterations=None, marginal_error=None):
        super().__init__(message)
        self.iterations = iterations
        self.marginal_error = marginal_error


class NumericError(PotdError, ArithmeticError):
    """A numerical failure (underflow/overflow, solver breakdown) that is
    not a plain precondition violation."""


class DatasetError(PotdError, ValueError):
    """Base class for problems with an input dataset file."""


class DatasetParseError(DatasetError):
    """A cell could not be parsed as a number; carries 1-based data-row
    and column coordinates."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class DatasetSchemaError(DatasetError):
    """The file structure is wrong (missing header, absent label column,
    inconsistent field counts)."""
