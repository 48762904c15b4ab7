"""Pareto hypervolume (PHV) computation.

The PHV of a solution set is the volume of the objective-space region
dominated by the set and bounded by a reference point (minimisation: the
reference point must be no better than every point in every objective).  The
exact computation uses the WFG-style recursive "exclusive hypervolume"
decomposition, which is practical for the paper's dimensionalities (3-5
objectives) and population sizes (tens of points).

The order of the float operations is part of the seeded contract, because
MOOS and MOO-STAGE train on PHV values: the points are stably sorted on the
first objective once, every box is the left-to-right product of
``reference - point`` (what ``np.prod`` computes for these row lengths), and
each point's exclusive volume is its box minus the volume of its limited set,
accumulated in sorted order.
"""

from __future__ import annotations

from math import prod
from operator import le, sub

import numpy as np


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
    """Exact hypervolume of ``points`` w.r.t. ``reference`` (minimisation).

    Points that do not dominate the reference point contribute nothing and are
    discarded; dominated and repeated points are likewise discarded before
    the recursion.
    """
    points, reference = _validate(points, reference)
    if len(points) == 0:
        return 0.0
    inside = np.all(points < reference, axis=1)
    points = points[inside]
    if len(points) == 0:
        return 0.0
    return _wfg(points, reference)


def _wfg(points: np.ndarray, reference: np.ndarray) -> float:
    """WFG exclusive-hypervolume recursion.

    ``points`` must be strictly better than ``reference`` in every objective;
    both public entry points filter to that.  The one sort, ascending on the
    first objective, happens here: a limited set keeps that order (see
    :func:`_wfg_sorted`), so the recursion runs on plain Python lists and
    never sorts again.
    """
    order = np.argsort(points[:, 0], kind="stable")
    return _wfg_sorted(_non_dominated(points[order].tolist()), reference.tolist())


def _wfg_sorted(points: list[list[float]], reference: list[float]) -> float:
    """WFG recursion on distinct non-dominated rows sorted ascending on the first objective."""
    total = 0.0
    for idx, point in enumerate(points):
        exclusive = prod(map(sub, reference, point))
        rest = points[idx + 1 :]
        if rest:
            # Limit the later rows to the region dominated by `point`.  Their
            # first objective is no smaller than the point's, so the max leaves
            # it, and with it the sort order, unchanged; the max of two points
            # inside the reference box is inside it.
            limited = [[p if p > r else r for r, p in zip(row, point)] for row in rest]
            if len(limited) == 1:
                exclusive -= prod(map(sub, reference, limited[0]))
            else:
                exclusive -= _wfg_sorted(_non_dominated(limited), reference)
        total += exclusive
    return total


def _non_dominated(points: list[list[float]]) -> list[list[float]]:
    """The rows no other row dominates, in their order, each value once.

    ``points`` is sorted ascending on the first objective, so only earlier
    rows and later first-objective ties can dominate a row.  Of equal rows
    only the last is kept: in WFG an earlier copy's limited set holds the
    later one, so its exclusive volume is exactly ``box - box = 0.0`` and
    dropping it leaves every float of the recursion unchanged, while keeping
    ``k`` copies would cost ``2**k`` recursion nodes.
    """
    kept = []
    for idx, row in enumerate(points):
        head = row[0]
        covered = False
        for other in points[:idx]:
            if other != row and all(map(le, other, row)):
                covered = True
                break
        if not covered:
            for other in points[idx + 1 :]:
                if other[0] != head:
                    break
                if all(map(le, other, row)):
                    covered = True
                    break
        if not covered:
            kept.append(row)
    return kept


def hypervolume_contribution(point: np.ndarray, front: np.ndarray, reference: np.ndarray) -> float:
    """Exclusive hypervolume a new point would add to an existing front.

    Computes ``hv(front + {point}) - hv(front)`` without re-evaluating the
    full front: the contribution is the volume of the box between ``point``
    and the reference, minus the part of that box already covered by the
    front (obtained by clipping the front into the box).  Used by the
    MOOS / MOO-STAGE baselines whose local searches accept moves by
    hypervolume improvement.
    """
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
    return box - _wfg(clipped, reference)


def reference_point_from(points: np.ndarray, margin: float = 0.1) -> np.ndarray:
    """A reference point slightly worse than the componentwise worst of ``points``."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    worst = points.max(axis=0)
    span = worst - points.min(axis=0)
    span[span == 0] = np.abs(worst[span == 0]) + 1.0
    return worst + margin * span
