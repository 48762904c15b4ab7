"""Validation helpers used across configuration objects."""

from __future__ import annotations

from operator import index
from typing import Any


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError`` with ``message`` when ``condition`` is false."""
    if not condition:
        raise ValueError(message)


def require_positive(value: Any, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if value is None or value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def require_probability(value: float, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` lies in [0, 1]."""
    if value is None or not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")


def require_count(value: Any, name: str, minimum: int) -> int:
    """``value`` as an ``int`` of at least ``minimum``; never coerced.

    Floats, strings and booleans raise ``TypeError`` naming the field
    (``operator.index`` rejects the first two; ``True`` would otherwise count
    as 1); values below ``minimum`` raise ``ValueError``.
    """
    if not isinstance(value, bool):
        try:
            count = index(value)
        except TypeError:
            pass
        else:
            if count < minimum:
                raise ValueError(f"{name} must be >= {minimum}, got {count}")
            return count
    raise TypeError(f"{name} must be an integer, got {value!r}")
