"""Scalarisation functions used by the decomposition-based components.

* :func:`weighted_distance` — the weighted-sum distance to the reference point
  used by MOELA's local search (Eq. 8);
* :func:`tchebycheff` — the Tchebycheff scalarisation used by the
  decomposition-based EA's population update (Eq. 9).

Both treat the reference point ``z`` as the (running) ideal point and are
minimised.
"""

from __future__ import annotations

import numpy as np


def _validate(objectives: np.ndarray, weight: np.ndarray, reference: np.ndarray, scale=None):
    objectives = np.asarray(objectives, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if objectives.shape[-1] != weight.shape[-1] or weight.shape[-1] != reference.shape[-1]:
        raise ValueError(
            "objectives, weight and reference must share the same number of objectives"
        )
    if np.any(weight < 0):
        raise ValueError("weights must be non-negative")
    if scale is None:
        scale = np.ones_like(reference)
    else:
        scale = np.asarray(scale, dtype=np.float64)
        if scale.shape[-1] != reference.shape[-1]:
            raise ValueError("scale must have one entry per objective")
        scale = np.where(scale <= 0, 1.0, scale)
    return objectives, weight, reference, scale


def weighted_distance(
    objectives: np.ndarray,
    weight: np.ndarray,
    reference: np.ndarray,
    scale: np.ndarray | None = None,
) -> float:
    """Weighted absolute distance to the reference point, Eq. 8.

    ``g(Obj | w, z) = sum_i w_i * |Obj_i - z_i|``

    ``scale`` optionally divides each objective's distance (typically the
    population's nadir-minus-ideal span) so that objectives with very
    different magnitudes contribute comparably.
    """
    objectives, weight, reference, scale = _validate(objectives, weight, reference, scale)
    return float(np.sum(weight * np.abs(objectives - reference) / scale, axis=-1))


def tchebycheff(
    objectives: np.ndarray,
    weight: np.ndarray,
    reference: np.ndarray,
    scale: np.ndarray | None = None,
) -> float:
    """Tchebycheff scalarisation, Eq. 9.

    ``g(x | w, z) = max_i w_i * |Obj_i(x) - z_i|``

    Zero weights are replaced by a small positive value so that every
    objective still influences the scalar value (the standard MOEA/D fix for
    boundary weight vectors).  ``scale`` behaves as in
    :func:`weighted_distance`.
    """
    objectives, weight, reference, scale = _validate(objectives, weight, reference, scale)
    safe_weight = np.where(weight <= 0, 1e-6, weight)
    return float(np.max(safe_weight * np.abs(objectives - reference) / scale, axis=-1))
