"""Exception taxonomy shared across the package.

Two broad failure classes matter to callers (and to the CLI's exit codes):
problems with the *data* handed to us, and problems that arise *numerically*
while processing perfectly well-formed data.
"""


class StableParError(Exception):
    """Base class for all package-specific errors."""


class DataError(StableParError):
    """Malformed or unusable input data (bad CSV, missing columns, NaNs).

    The CLI maps this to exit code 2.
    """


class NumericalError(StableParError):
    """A numerical procedure failed on well-formed input.

    The CLI maps this to exit code 3.
    """


class DegenerateSeriesError(NumericalError):
    """A denominator that should be positive vanished (e.g. an all-zero
    sub-sample in a normalized-covariation estimate)."""


class TableRangeError(NumericalError):
    """A quantile statistic fell outside the range the quantile-based
    estimator inverts (tails heavier than alpha = 0.6, or a vanishing
    interquartile range), so parameter estimation cannot proceed."""


class SolverError(NumericalError):
    """An iterative or direct linear solve did not produce an acceptable
    solution (non-convergence, breakdown, or inconsistent system)."""


class UnboundedModelError(NumericalError):
    """A periodic autoregression whose bounded solution does not exist was
    passed where a bounded model is required."""
