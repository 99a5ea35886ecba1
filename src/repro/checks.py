"""What a valid number is, for every field a user configures.

Specs, strategies, triggers, cost models and curves check their numbers
here at construction.  A check takes ``(name, value)`` and returns the
value as the field's type, or raises a ``ValueError`` that opens with the
name: ``<name> must be <what>, got <value!r>`` (a scenario file prefixes
the field's path).  ``bool`` is never a number and NaN fails every range.
"""

from __future__ import annotations

import math
from numbers import Integral, Real


def is_number(value: object) -> bool:
    """Whether ``value`` is a real number, as a JSON number parses to (``bool`` is not one)."""
    # A plain float or int first: the ABC check costs more than the rest of a check.
    return value.__class__ in (float, int) or (isinstance(value, Real) and not isinstance(value, bool))


def check_count(name: str, value: object) -> int:
    """``value`` as an ``int`` >= 1, or a ``ValueError`` that opens with ``name``."""
    if value.__class__ is not int and (isinstance(value, bool) or not isinstance(value, Integral)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def check_non_negative_int(name: str, value: object) -> int:
    """``value`` as an ``int`` >= 0 (a seed, a count that may be zero), or a ``ValueError`` that opens with ``name``."""
    if value.__class__ is not int and (isinstance(value, bool) or not isinstance(value, Integral)) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    return int(value)


def check_positive(name: str, value: object) -> float:
    """``value`` as a finite positive ``float``, or a ``ValueError`` that opens with ``name``."""
    if not is_number(value) or not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    return float(value)


def check_finite(name: str, value: object) -> float:
    """``value`` as a finite ``float``, or a ``ValueError`` that opens with ``name``."""
    if not is_number(value) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def check_end(name: str, value: object) -> float:
    """``value`` as a ``float`` that may be ``inf`` (no end), or a ``ValueError`` that opens with ``name``."""
    if not is_number(value) or math.isnan(value):
        raise ValueError(f"{name} must be a number (inf: no end), got {value!r}")
    return float(value)


def check_non_negative(name: str, value: object) -> float:
    """``value`` as a finite ``float`` >= 0, or a ``ValueError`` that opens with ``name``."""
    if not is_number(value) or not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
    return float(value)


def check_probability(name: str, value: object) -> float:
    """``value`` as a ``float`` in ``[0, 1]``, or a ``ValueError`` that opens with ``name``."""
    if not is_number(value) or not 0 <= value <= 1:  # also false for NaN
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)
