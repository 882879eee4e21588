"""Exception hierarchy shared across the package.

Three broad classes, matching the command-line exit codes:

* usage problems (bad flags, unknown subcommand) -- handled by the CLI itself,
* :class:`DataError` -- malformed or inconsistent input data (exit code 2),
* :class:`NumericalError` -- a computation could not be carried out (exit code 3).
"""

from __future__ import annotations


class ErrlensError(Exception):
    """Base class for all errors raised by this package."""


class DataError(ErrlensError):
    """Input data is malformed, inconsistent, or violates a contract."""


class NumericalError(ErrlensError):
    """A numerical procedure failed (singular system, divergence, ...)."""


# --- ingest ----------------------------------------------------------------


class MissingColumn(DataError):
    """A required column is absent from a CSV header."""


class NonNumericCell(DataError):
    """A continuous-feature cell could not be parsed as a finite number."""


class InvalidLabel(DataError):
    """A label cell is not 0 or 1."""


class EmptySeries(DataError):
    """A time series has no samples."""


class SeriesTooShort(DataError):
    """A series has no time step with full history for the requested windows/lags."""


class DegenerateSplit(DataError):
    """A train/test split would leave one side empty."""


# --- black-box model -------------------------------------------------------


class EmptyTable(DataError):
    """An operation requires at least one row."""


class SchemaMismatch(DataError):
    """Feature names/kinds do not match the schema a model was trained on."""


class MissingRowId(DataError):
    """An external prediction file does not cover a required row id."""


class DuplicateRowId(DataError):
    """A row id occurs more than once where uniqueness is required."""


class ProbabilityOutOfRange(DataError):
    """A probability from a file or a predictor is not a number within [0, 1]."""


# --- explanations ----------------------------------------------------------


class UnknownFeature(DataError):
    """A feature name is not part of the schema under consideration."""


class SingularSystem(NumericalError):
    """The weighted ridge normal equations are singular (only possible at lambda=0)."""


class NoExplanations(DataError):
    """Condition mining was invoked with an empty explanation set."""


class InvalidSpec(DataError):
    """A synthetic-data specification is internally inconsistent."""
