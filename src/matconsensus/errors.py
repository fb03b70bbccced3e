"""The exception for a model or input violation, and two input rules."""

import math
import operator


class ModelError(ValueError):
    """A model or input violation: a weight that is zero, indefinite or
    asymmetric, a dwell outside its bounds, a span outside the signal, a
    matrix or grid too large to hold, and so on.  The message names the
    violation; the command-line front end reports it with exit code 2."""


def as_float(value: object, what: str, *, finite: bool = True) -> float:
    """``value`` as a float; :class:`ModelError` naming ``what`` unless it is
    a number, and a finite one unless ``finite`` is false."""
    try:
        number = float(value)
        if not finite or math.isfinite(number):
            return number
    except (TypeError, ValueError, OverflowError):  # OverflowError: a huge int
        pass
    raise ModelError(f"{what} {value!r} is not a finite number")


def as_index(value: object, what: str) -> int:
    """``operator.index(value)``; :class:`ModelError` naming ``what`` unless
    ``value`` is an integer (a float is not, even ``2.0``)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ModelError(f"{what} {value!r} is not an integer") from None
