"""Search budgets.

The paper bounds every algorithm by a wall-clock stop time ``T_stop``
(Section V.C).  :class:`Budget` generalises the stop condition to
iterations / evaluations / seconds so the reduced benchmark harness can use a
deterministic evaluation budget.  The paper's convergence criterion is not a
stop condition: it is read after the run from the search history, by
:meth:`~repro.moo.result.OptimizationResult.convergence_effort`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.utils.validation import require_count


@dataclass(frozen=True)
class Budget:
    """Stop conditions for one optimisation run (any satisfied condition stops)."""

    max_iterations: int | None = None
    max_evaluations: int | None = None
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_iterations is None and self.max_evaluations is None and self.max_seconds is None:
            raise ValueError("a budget needs at least one stop condition")
        for name in ("max_iterations", "max_evaluations"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, require_count(value, name, 1))
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be > 0")

    def exhausted(self, iterations: int, evaluations: int, elapsed_seconds: float) -> bool:
        """True when any configured limit has been reached."""
        if self.max_iterations is not None and iterations >= self.max_iterations:
            return True
        if self.max_evaluations is not None and evaluations >= self.max_evaluations:
            return True
        if self.max_seconds is not None and elapsed_seconds >= self.max_seconds:
            return True
        return False

    def remaining_evaluations(self, evaluations: int) -> int | None:
        """Evaluations left before the evaluation limit, or None if unlimited."""
        if self.max_evaluations is None:
            return None
        return max(0, self.max_evaluations - evaluations)

    @classmethod
    def iterations(cls, count: int) -> "Budget":
        """Budget limited only by iteration count."""
        return cls(max_iterations=count)

    @classmethod
    def evaluations(cls, count: int) -> "Budget":
        """Budget limited only by objective evaluations."""
        return cls(max_evaluations=count)

    @classmethod
    def seconds(cls, seconds: float) -> "Budget":
        """Budget limited only by wall-clock time (the paper's ``T_stop``)."""
        return cls(max_seconds=seconds)


class StopWatch:
    """Tiny wall-clock helper shared by the optimisers."""

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction."""
        return time.perf_counter() - self._start
