"""Exception and warning types shared across the package."""


class GlgmixError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GlgmixError, ValueError):
    """An input is outside the mathematical domain of an operation."""


class MomentExistenceError(GlgmixError, ValueError):
    """A requested moment does not exist (divergent integral).

    Distinct from :class:`DomainError`: the parameters are valid, but the
    exponential moment has no finite value for them.
    """


class ModeSearchError(GlgmixError, RuntimeError):
    """The mode search inside adaptive quadrature failed.

    Either the integrand's first derivative was NaN where the search
    stood, its second derivative at the mode found was not finite and
    negative, or the mode lies beyond what the search's capped Newton
    steps reach.

    Attributes
    ----------
    last_iterate : ndarray
        Position of each failing cluster's search when it gave up, in the
        order the message names the clusters.
    """

    def __init__(self, message, last_iterate):
        super().__init__(message)
        self.last_iterate = last_iterate


class DataFormatError(GlgmixError, ValueError):
    """Base class for CSV/model-spec ingestion problems.

    ``row`` is the 1-based file line where the offending record starts
    (header = line 1; a quoted field may span several lines) and
    ``column`` the offending column name; either may be None when it does
    not apply.
    """

    def __init__(self, message, row=None, column=None):
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)
        self.row = row
        self.column = column


class EmptyFileError(DataFormatError):
    """The CSV file has no header or no data rows."""


class MissingColumnError(DataFormatError):
    """A column referenced by the model spec is not in the CSV header."""


class ResponseValueError(DataFormatError):
    """A response cell is not a nonnegative integer."""


class RaggedRowError(DataFormatError):
    """A data row has a different number of fields than the header."""


class FieldParseError(DataFormatError):
    """A covariate/offset cell could not be parsed as a number."""


class CollinearDesignError(GlgmixError, ValueError):
    """The stacked design matrix is rank deficient.

    Attributes
    ----------
    columns : tuple of str
        Names of the columns implicated in the collinearity.
    """

    def __init__(self, message, columns=()):
        super().__init__(message)
        self.columns = tuple(columns)


class LeverageError(GlgmixError, RuntimeError):
    """The pooled weighted cross-product matrix is singular; leverages undefined."""


class EnvelopeError(GlgmixError, RuntimeError):
    """Too many envelope replicates failed to refit."""


class NegativeDevianceWarning(UserWarning):
    """At least one squared deviance component came out negative.

    The even per-cluster apportionment of the dispersion term can push
    individual components below zero; the corresponding deviance residuals
    are reported as NaN rather than clamped.
    """


class NonPsdWeightWarning(UserWarning):
    """A cluster weight matrix had an eigenvalue below -1e-10 before clipping."""


class EnvelopeReplicateWarning(UserWarning):
    """An envelope replicate was dropped (refit did not converge or its
    residuals were undefined)."""
