"""Pareto hypervolume (PHV) computation.

The PHV of a solution set is the volume of the objective-space region
dominated by the set and bounded by a reference point (minimisation: the
reference point must be no better than every point in every objective).  The
exact computation uses the WFG-style recursive "exclusive hypervolume"
decomposition, which is practical for the paper's dimensionalities (3-5
objectives) and population sizes (tens of points).
"""

from __future__ import annotations

import numpy as np

from repro.moo.dominance import non_dominated_mask


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
    discarded; dominated points are likewise discarded before the recursion.
    """
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
    """WFG exclusive-hypervolume recursion.

    ``points`` must be mutually non-dominated and strictly better than
    ``reference`` in every objective; both public entry points filter to that.
    """
    if len(points) == 1:
        return float(np.prod(reference - points[0]))
    # Sort by the first objective (descending volume contribution order helps
    # keep the limited sets small).
    order = np.argsort(points[:, 0], kind="stable")
    points = points[order]
    # The WFG float-operation order is part of the seeded contract: each box
    # is the same product as ``np.prod(reference - point)``, and the
    # subtraction and accumulation below keep their order.
    boxes = np.prod(reference - points, axis=1)
    total = 0.0
    for idx in range(len(points)):
        point = points[idx]
        exclusive = float(boxes[idx])
        if idx + 1 < len(points):
            # Limit the remaining points to the region dominated by `point`.
            # The max of two points inside the reference box is inside it, so
            # nothing needs dropping; a single point is non-dominated.
            limited = np.maximum(points[idx + 1 :], point)
            if len(limited) > 1:
                limited = limited[non_dominated_mask(limited)]
            exclusive -= _wfg(limited, reference)
        total += exclusive
    return total


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
    clipped = clipped[non_dominated_mask(clipped)]
    return box - _wfg(clipped, reference)


def reference_point_from(points: np.ndarray, margin: float = 0.1) -> np.ndarray:
    """A reference point slightly worse than the componentwise worst of ``points``."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    worst = points.max(axis=0)
    span = worst - points.min(axis=0)
    span[span == 0] = np.abs(worst[span == 0]) + 1.0
    return worst + margin * span
