"""Bounded Pareto archive of non-dominated designs."""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.moo.dominance import crowding_distance
from repro.utils.validation import require_count


class ParetoArchive:
    """Maintains a set of mutually non-dominated ``(design, objectives)`` pairs.

    When a maximum size is set and exceeded, the most crowded members are
    evicted first (crowding-distance based truncation), preserving spread.
    :attr:`revision` changes whenever the members do, so a caller can reuse a
    value computed from the archive while the revision it saw still holds.
    """

    def __init__(self, max_size: int | None = None):
        self.max_size = None if max_size is None else require_count(max_size, "max_size", 1)
        self._designs: list[Any] = []
        self._objectives: list[np.ndarray] = []
        #: Bumped by every accepted :meth:`add`, whose truncation included.
        self.revision = 0

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def add(self, design: Any, objectives: np.ndarray) -> bool:
        """Insert a candidate; returns True when it enters the archive.

        The candidate is rejected when an archived member dominates it or has
        identical objectives; archived members dominated by the candidate are
        removed.
        """
        objectives = np.asarray(objectives, dtype=np.float64).copy()
        if self._objectives:
            archived = np.asarray(self._objectives)
            if objectives.shape != archived.shape[1:]:
                raise ValueError(
                    f"objective vectors must have the same shape: "
                    f"{archived.shape[1:]} vs {objectives.shape}"
                )
            # A member no worse in every objective either dominates or equals the candidate.
            if (archived <= objectives).all(axis=1).any():
                return False
            dominated = (objectives <= archived).all(axis=1) & (objectives < archived).any(axis=1)
            self._designs = [d for d, drop in zip(self._designs, dominated) if not drop]
            self._objectives = [o for o, drop in zip(self._objectives, dominated) if not drop]
        self._designs.append(design)
        self._objectives.append(objectives)
        self._truncate()
        self.revision += 1
        return True

    def add_many(self, designs: list[Any], objectives: np.ndarray) -> int:
        """Insert several candidates; returns how many entered the archive."""
        objectives = np.atleast_2d(np.asarray(objectives, dtype=np.float64))
        return sum(1 for design, obj in zip(designs, objectives) if self.add(design, obj))

    def _truncate(self) -> None:
        if self.max_size is None or len(self._designs) <= self.max_size:
            return
        while len(self._designs) > self.max_size:
            distances = crowding_distance(np.asarray(self._objectives))
            victim = int(np.argmin(distances))
            del self._designs[victim]
            del self._objectives[victim]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._designs)

    def __iter__(self) -> Iterator[tuple[Any, np.ndarray]]:
        return iter(zip(self._designs, [o.copy() for o in self._objectives]))

    @property
    def designs(self) -> list[Any]:
        """The archived designs."""
        return list(self._designs)

    @property
    def objectives(self) -> np.ndarray:
        """The archived objective vectors as an ``n x M`` matrix."""
        if not self._objectives:
            return np.empty((0, 0))
        return np.asarray(self._objectives, dtype=np.float64).copy()

    def ideal_point(self) -> np.ndarray:
        """Componentwise best objective values across the archive."""
        if not self._objectives:
            raise ValueError("the archive is empty")
        return self.objectives.min(axis=0)

    def best_for_weight(self, weight: np.ndarray, reference: np.ndarray) -> tuple[Any, np.ndarray]:
        """Archived member with the best Tchebycheff value for a weight vector."""
        from repro.moo.scalarization import tchebycheff

        if not self._objectives:
            raise ValueError("the archive is empty")
        values = [tchebycheff(obj, weight, reference) for obj in self._objectives]
        best = int(np.argmin(values))
        return self._designs[best], self._objectives[best].copy()
