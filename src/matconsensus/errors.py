"""The exception raised by model construction, analysis, and simulation."""


class ModelError(ValueError):
    """A model or input violation: a weight that is zero, indefinite or
    asymmetric, a dwell outside its bounds, a span outside the signal, a
    matrix or grid too large to hold, and so on.  The message names the
    violation; the command-line front end reports it with exit code 2."""
