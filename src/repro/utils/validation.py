"""Validation helpers used across configuration objects.

Every setting is checked once, by the object that stores it, through
:func:`require_count`, :func:`require_flag` or :func:`require_probability`.
One contract: a wrong type raises ``TypeError``, an out-of-range value raises
``ValueError``, both messages start with the ``name`` the caller wrote (a
field or a study key), and nothing is coerced.
"""

from __future__ import annotations

from numbers import Real
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


def require_probability(value: Any, name: str) -> Any:
    """``value`` if it is a real number in [0, 1]; booleans and strings are not."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a number in [0, 1], got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return value


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


def require_flag(value: Any, name: str) -> bool:
    """``value`` if it is a ``bool``; ``0``, ``1`` and ``"false"`` raise ``TypeError``."""
    if not isinstance(value, bool):
        raise TypeError(f"{name} must be true or false, got {value!r}")
    return value
