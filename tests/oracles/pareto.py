"""Per-pair Pareto bookkeeping: the scalar loops the array kernels replaced.

These are verbatim copies of the loop implementations of
``non_dominated_mask``, ``fast_non_dominated_sort``, ``ParetoArchive.add`` and
the WFG recursion (one ``np.prod`` per point) that ``repro.moo`` used before it
moved to the row-blocked ``dominance_matrix`` kernel.  They live only here, as
bit-exact oracles: ``tests/properties/test_moo_properties.py`` asserts that the
array code returns exactly (``==``, not ``allclose``) what these return.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.moo.dominance import crowding_distance


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True when objective vector ``a`` Pareto-dominates ``b`` (minimisation)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"objective vectors must have the same shape: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


def non_dominated_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of an ``n x M`` objective matrix."""
    objectives = np.atleast_2d(np.asarray(objectives, dtype=np.float64))
    n = len(objectives)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        for j in range(n):
            if i == j or not mask[j]:
                continue
            if dominates(objectives[j], objectives[i]):
                mask[i] = False
                break
    return mask


def fast_non_dominated_sort(objectives: np.ndarray) -> list[list[int]]:
    """NSGA-II fast non-dominated sorting.

    Returns the list of fronts; each front is a list of row indices, the first
    front being the non-dominated set.
    """
    objectives = np.atleast_2d(np.asarray(objectives, dtype=np.float64))
    n = len(objectives)
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    domination_count = np.zeros(n, dtype=np.int64)

    for i in range(n):
        for j in range(i + 1, n):
            if dominates(objectives[i], objectives[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(objectives[j], objectives[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1

    fronts: list[list[int]] = [[i for i in range(n) if domination_count[i] == 0]]
    current = 0
    while fronts[current]:
        next_front: list[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    fronts.pop()  # the last front is always empty
    return fronts


class ParetoArchive:
    """The per-member insertion loop of ``repro.moo.archive.ParetoArchive``."""

    def __init__(self, max_size: int | None = None):
        if max_size is not None and max_size < 1:
            raise ValueError("max_size must be >= 1 or None")
        self.max_size = max_size
        self._designs: list[Any] = []
        self._objectives: list[np.ndarray] = []

    def add(self, design: Any, objectives: np.ndarray) -> bool:
        """Insert a candidate; returns True when it enters the archive.

        The candidate is rejected when an archived member dominates it or has
        identical objectives; archived members dominated by the candidate are
        removed.
        """
        objectives = np.asarray(objectives, dtype=np.float64).copy()
        keep_designs: list[Any] = []
        keep_objectives: list[np.ndarray] = []
        for archived_design, archived_obj in zip(self._designs, self._objectives):
            if dominates(archived_obj, objectives) or np.array_equal(archived_obj, objectives):
                return False
            if not dominates(objectives, archived_obj):
                keep_designs.append(archived_design)
                keep_objectives.append(archived_obj)
        keep_designs.append(design)
        keep_objectives.append(objectives)
        self._designs = keep_designs
        self._objectives = keep_objectives
        self._truncate()
        return True

    def _truncate(self) -> None:
        if self.max_size is None or len(self._designs) <= self.max_size:
            return
        while len(self._designs) > self.max_size:
            distances = crowding_distance(np.asarray(self._objectives))
            victim = int(np.argmin(distances))
            del self._designs[victim]
            del self._objectives[victim]

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


def _validate(points: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    reference = np.asarray(reference, dtype=np.float64).ravel()
    if points.size == 0:
        return points.reshape(0, len(reference)), reference
    if points.shape[1] != len(reference):
        raise ValueError(
            f"points have {points.shape[1]} objectives but the reference has {len(reference)}"
        )
    return points, reference


def hypervolume(points: np.ndarray, reference: np.ndarray) -> float:
    """Exact hypervolume of ``points`` w.r.t. ``reference`` (minimisation)."""
    points, reference = _validate(points, reference)
    if len(points) == 0:
        return 0.0
    inside = np.all(points < reference, axis=1)
    points = points[inside]
    if len(points) == 0:
        return 0.0
    points = points[non_dominated_mask(points)]
    return _wfg(points, reference)


def _wfg(points: np.ndarray, reference: np.ndarray) -> float:
    """WFG exclusive-hypervolume recursion on a mutually non-dominated set."""
    if len(points) == 0:
        return 0.0
    if len(points) == 1:
        return float(np.prod(reference - points[0]))
    # Sort by the first objective (descending volume contribution order helps
    # keep the limited sets small).
    order = np.argsort(points[:, 0], kind="stable")
    points = points[order]
    total = 0.0
    for idx in range(len(points)):
        point = points[idx]
        exclusive = float(np.prod(reference - point))
        if idx + 1 < len(points):
            # Limit the remaining points to the region dominated by `point`.
            limited = np.maximum(points[idx + 1 :], point)
            limited = limited[np.all(limited < reference, axis=1)]
            if len(limited) > 0:
                limited = limited[non_dominated_mask(limited)]
                exclusive -= _wfg(limited, reference)
        total += exclusive
    return total


def hypervolume_contribution(point: np.ndarray, front: np.ndarray, reference: np.ndarray) -> float:
    """Exclusive hypervolume a new point would add to an existing front."""
    point = np.asarray(point, dtype=np.float64).ravel()
    front, reference = _validate(front, reference)
    if np.any(point >= reference):
        return 0.0
    box = float(np.prod(reference - point))
    if len(front) == 0:
        return box
    clipped = np.maximum(front, point)
    clipped = clipped[np.all(clipped < reference, axis=1)]
    if len(clipped) == 0:
        return box
    clipped = clipped[non_dominated_mask(clipped)]
    return box - _wfg(clipped, reference)
