"""Exception types raised by spimax.

Everything derives from SpimaxError so callers can catch the package's
failures with a single except clause.  Validation problems additionally
subclass ValueError, numerical/iteration problems RuntimeError.
"""


class SpimaxError(Exception):
    """Base class for all spimax errors."""


# ---- data / model construction ----

class ShapeMismatch(SpimaxError, ValueError):
    """Array dimensions disagree with the declared model layout."""


class RankDeficient(SpimaxError, ValueError):
    """Stacked design matrix does not have full column rank."""


class MissingErrorVariance(SpimaxError, ValueError):
    """Area-level data lacks a (positive) known error variance."""


# ---- estimation ----

class SingularSystem(SpimaxError, RuntimeError):
    """A linear system that must be solvable is numerically singular."""


class NoConvergence(SpimaxError, RuntimeError):
    """Variance-component optimisation failed to converge."""


class DegenerateData(SpimaxError, ValueError):
    """Response has (numerically) zero residual variation."""


class CholeskyFailure(SpimaxError, RuntimeError):
    """A covariance matrix that must be positive definite is not."""


# ---- max-statistic inference ----

class AlphaOutOfRange(SpimaxError, ValueError):
    """Significance level outside (0, 1)."""


class ProviderInconsistent(SpimaxError, RuntimeError):
    """Step-down quantile provider violated subset monotonicity."""


class EmptySubset(SpimaxError, ValueError):
    """Quantile requested for an empty cluster subset."""


# ---- bootstrap ----

class SeedOverflow(SpimaxError, ValueError):
    """Master seed or replicate key outside the supported integer range."""


# ---- analytic critical values ----

class InvalidConstants(SpimaxError, ValueError):
    """Tube constants violate their admissibility conditions."""


class BoundUnattainable(SpimaxError, ValueError):
    """Tube bound stays above alpha over the whole search bracket."""


class NonMonotoneBound(SpimaxError, RuntimeError):
    """Defensive check: tube bound is not monotone where it must be."""


# ---- command line / ingestion ----

class ParseError(SpimaxError, ValueError):
    """Malformed input file."""


class EmptyFile(SpimaxError, ValueError):
    """Input file contains no data rows."""


class EmptyGrid(SpimaxError, ValueError):
    """Candidate grid for the shift search is empty."""


class NonPositiveShift(SpimaxError, ValueError):
    """Shift candidate does not keep the response strictly positive."""
