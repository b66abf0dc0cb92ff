"""Exception types shared across the package, and the readers of outside
numbers.

Two failure families matter to callers: bad inputs (rejected before any
numerics run) and numerical breakdowns (a computation started and could not
be completed to tolerance).  The command-line driver maps them to distinct
exit codes.

Each count, tolerance, scale, radius, curvature, coordinate and point from
JSON or a caller goes through one of the private readers below; none takes
a boolean.
"""

import math
import numbers
import operator

import numpy as np


class InputError(ValueError):
    """Invalid input: constraint violations caught before computation."""


class NumericalError(RuntimeError):
    """A solver or numerical routine failed to reach its tolerance."""


def _number(value, name: str):
    """``value`` unchanged; a ``bool`` or ``numpy.bool_``, which ``complex``,
    ``abs`` and comparisons read as 0 or 1, raises ``InputError``."""
    if isinstance(value, (bool, np.bool_)):
        raise InputError(f"{name} must be a number, got {value!r}")
    return value


def _index(value, name: str) -> int:
    """``value`` as an int, read as ``operator.index`` reads it, booleans
    refused."""
    try:
        if isinstance(value, bool):  # which operator.index reads as 0 or 1
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None


def _count(value, name: str) -> int:
    """``value`` as an int: an integral float such as 257.0 passes, else
    as ``_index`` reads it."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return _index(value, name)


def _positive(value, name: str) -> float:
    """``value`` as a float, for a real number, not a boolean, with
    0 < value < inf.  NaN fails every comparison, so it is refused too."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 < value < math.inf):
        raise InputError(
            f"{name} must be a positive finite number, got {value!r}"
        )
    return float(value)


def _nonpositive(value, name: str) -> float:
    """``value`` as a float, for a real number, not a boolean, with
    -inf < value <= 0; NaN is refused too."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not -math.inf < value <= 0):
        raise InputError(
            f"{name} must be a finite number <= 0, got {value!r}"
        )
    return float(value)


def _complex(entry) -> complex:
    """``complex(entry["re"], entry["im"])``.  A missing part raises
    KeyError; a boolean part raises TypeError, as a string or null part
    does in ``complex``, so each caller's message covers all three."""
    re, im = entry["re"], entry["im"]
    if isinstance(re, bool) or isinstance(im, bool):
        raise TypeError(f"a coordinate must be a number, got {entry!r}")
    return complex(re, im)
