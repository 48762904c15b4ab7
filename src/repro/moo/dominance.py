"""Pareto-dominance utilities (minimisation convention throughout).

A vector ``a`` dominates ``b`` when it is no worse in every objective and
strictly better in at least one.  These functions back the Pareto archive,
NSGA-II's non-dominated sorting and the hypervolume routines, which all
compare rows through one vectorized kernel, :func:`dominance_matrix`.
"""

from __future__ import annotations

import numpy as np

# Rows per block of the dominance kernel: bounds its broadcast temporaries.
_BLOCK_ROWS = 256


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True when objective vector ``a`` Pareto-dominates ``b`` (minimisation)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"objective vectors must have the same shape: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


def dominance_matrix(objectives: np.ndarray) -> np.ndarray:
    """``n x n`` boolean matrix whose entry ``[i, j]`` is True when row ``i`` dominates row ``j``.

    Rows are compared in fixed-size blocks, so the broadcast temporaries stay
    O(block * n * M) however many rows the matrix has.
    """
    objectives = np.atleast_2d(np.asarray(objectives, dtype=np.float64))
    n = len(objectives)
    matrix = np.empty((n, n), dtype=bool)
    others = objectives[np.newaxis, :, :]
    for start in range(0, n, _BLOCK_ROWS):
        rows = objectives[start : start + _BLOCK_ROWS, np.newaxis, :]
        matrix[start : start + _BLOCK_ROWS] = (rows <= others).all(-1) & (rows < others).any(-1)
    return matrix


def non_dominated_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of an ``n x M`` objective matrix.

    Duplicate rows do not dominate each other, so both copies are kept.
    """
    return ~dominance_matrix(objectives).any(axis=0)


def non_dominated_front(objectives: np.ndarray) -> np.ndarray:
    """The non-dominated rows of an objective matrix (duplicates preserved)."""
    objectives = np.atleast_2d(np.asarray(objectives, dtype=np.float64))
    return objectives[non_dominated_mask(objectives)]


def fast_non_dominated_sort(objectives: np.ndarray) -> list[list[int]]:
    """NSGA-II fast non-dominated sorting.

    Returns the list of fronts; each front is a list of row indices, the first
    front being the non-dominated set.
    """
    matrix = dominance_matrix(objectives)
    dominated_by = [np.flatnonzero(row).tolist() for row in matrix]
    domination_count = matrix.sum(axis=0)

    fronts: list[list[int]] = [np.flatnonzero(domination_count == 0).tolist()]
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


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance of each row within one front."""
    objectives = np.atleast_2d(np.asarray(objectives, dtype=np.float64))
    n, m = objectives.shape
    distance = np.zeros(n, dtype=np.float64)
    if n <= 2:
        return np.full(n, np.inf)
    for obj in range(m):
        order = np.argsort(objectives[:, obj], kind="stable")
        sorted_values = objectives[order, obj]
        span = sorted_values[-1] - sorted_values[0]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if span == 0:
            continue
        distance[order[1:-1]] += (sorted_values[2:] - sorted_values[:-2]) / span
    return distance
