"""Small shared utilities (RNG handling, validation helpers)."""

from repro.utils.rng import ensure_rng, spawn_rng
from repro.utils.validation import (
    require,
    require_count,
    require_flag,
    require_positive,
    require_probability,
)

__all__ = [
    "ensure_rng",
    "spawn_rng",
    "require",
    "require_count",
    "require_flag",
    "require_positive",
    "require_probability",
]
