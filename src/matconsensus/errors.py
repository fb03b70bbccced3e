"""The exception for a model or input violation, and two input rules."""

import math
import operator

import numpy as np

# Truth values convert to 0 and 1 but are neither numbers nor integers here.
_BOOLS = (bool, np.bool_)


class ModelError(ValueError):
    """A model or input violation: a weight that is zero, indefinite or
    asymmetric, a dwell outside its bounds, a span outside the signal, a
    matrix or grid too large to hold, and so on.  The message names the
    violation; the command-line front end reports it with exit code 2."""


def as_float(value: object, what: str, *, finite: bool = True) -> float:
    """``value`` as a float; :class:`ModelError` naming ``what`` unless it is
    a number (a boolean is not), and a finite one unless ``finite`` is
    false."""
    try:
        number = float(value)
        if not isinstance(value, _BOOLS) and (not finite or math.isfinite(number)):
            return number
    except (TypeError, ValueError, OverflowError):  # OverflowError: a huge int
        pass
    raise ModelError(f"{what} {value!r} is not a finite number")


def as_index(value: object, what: str) -> int:
    """``operator.index(value)``; :class:`ModelError` naming ``what`` unless
    ``value`` is an integer (a float is not, even ``2.0``, nor a boolean)."""
    try:
        if not isinstance(value, _BOOLS):
            return operator.index(value)
    except TypeError:
        pass
    raise ModelError(f"{what} {value!r} is not an integer")
