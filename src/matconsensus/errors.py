"""Exception types raised by model construction, analysis, and simulation."""


class ModelError(ValueError):
    """Base class for all model-level failures."""


# -- weight / graph construction -------------------------------------------

class SelfLoopError(ModelError):
    """An edge was requested between a node and itself."""


class AsymmetricWeightError(ModelError):
    """A weight matrix is not symmetric within tolerance."""


class IndefiniteWeightError(ModelError):
    """A weight matrix has an eigenvalue below the negative tolerance."""


class ZeroWeightError(ModelError):
    """A weight matrix is zero within tolerance; absence of an edge is the
    canonical encoding, so zero weights are rejected."""


# -- spectral kernel --------------------------------------------------------

class NotSymmetricError(ModelError):
    """A matrix expected to be symmetric is not, within tolerance."""


class NotPositiveSemidefiniteError(ModelError):
    """A matrix expected to be positive semi-definite has a clearly negative
    eigenvalue."""


class NegativeDurationError(ModelError):
    """A time duration must be non-negative."""


# -- switching signals ------------------------------------------------------

class EmptySignalError(ModelError):
    """A switching signal needs at least one segment."""


class DimensionMismatchError(ModelError):
    """Graphs, states, or matrices do not share the expected dimensions."""


class DwellOutOfBoundsError(ModelError):
    """A dwell duration falls outside the configured [alpha, beta] bounds."""


class PeriodMismatchError(ModelError):
    """Segment durations of a periodic signal do not sum to the period."""


class TooFewPartitionsError(ModelError):
    """A periodic signal needs more than two segments per period."""


class TimeOutOfRangeError(ModelError):
    """A time instant lies outside the signal's domain."""


class EmptySpanError(ModelError):
    """A time span must have positive length."""


# -- analysis ---------------------------------------------------------------

class IndexOrderError(ModelError):
    """Segment indices must satisfy start < stop."""


class IndexOutOfRangeError(ModelError):
    """A segment index lies outside the signal's segment range."""


class BadThresholdError(ModelError):
    """A contraction threshold must lie strictly between 0 and 1."""


class InvalidSignalError(ModelError):
    """The operation requires a validated (periodic) switching signal."""


# -- verification -----------------------------------------------------------

class OracleDivergenceError(ModelError):
    """Exact propagation and the numerical reference disagree beyond the
    configured bound."""
