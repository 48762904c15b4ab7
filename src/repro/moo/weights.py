"""Weight-vector generation for decomposition-based algorithms.

MOEA/D and MOELA decompose the multi-objective problem into ``N`` scalar
sub-problems, each defined by a weight vector.  Weight vectors must be evenly
spread over the unit simplex; the standard construction is the Das-Dennis
simplex lattice.  When the lattice size does not match the requested
population size, the lattice is sub-sampled (or topped up with random simplex
samples) to exactly ``N`` vectors.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_count


def das_dennis_weights(num_objectives: int, divisions: int) -> np.ndarray:
    """Das-Dennis simplex-lattice weight vectors.

    Produces ``C(divisions + M - 1, M - 1)`` vectors with components that are
    multiples of ``1/divisions`` and sum to 1.
    """
    require_count(num_objectives, "num_objectives", 1)
    require_count(divisions, "divisions", 1)
    vectors = []
    for dividers in combinations(range(divisions + num_objectives - 1), num_objectives - 1):
        previous = -1
        counts = []
        for divider in dividers:
            counts.append(divider - previous - 1)
            previous = divider
        counts.append(divisions + num_objectives - 2 - previous)
        vectors.append([c / divisions for c in counts])
    return np.asarray(vectors, dtype=np.float64)


def _divisions_for(num_objectives: int, minimum_count: int) -> int:
    divisions = 1
    while len(das_dennis_weights(num_objectives, divisions)) < minimum_count:
        divisions += 1
        if divisions > 200:
            raise RuntimeError("could not find a lattice with enough weight vectors")
    return divisions


def uniform_weights(num_objectives: int, count: int, rng: RngLike = None) -> np.ndarray:
    """Exactly ``count`` evenly spread weight vectors on the unit simplex.

    The smallest Das-Dennis lattice with at least ``count`` vectors is built
    and, when larger than ``count``, sub-sampled with a greedy max-min
    dispersion heuristic so the retained vectors stay evenly spread (the
    extreme single-objective directions are always kept when possible).
    """
    require_count(count, "count", 1)
    rng = ensure_rng(rng)
    if num_objectives == 1:
        return np.ones((count, 1), dtype=np.float64)
    divisions = _divisions_for(num_objectives, count)
    lattice = das_dennis_weights(num_objectives, divisions)
    if len(lattice) == count:
        return lattice
    return _maxmin_subset(lattice, count, rng)


def _maxmin_subset(lattice: np.ndarray, count: int, rng) -> np.ndarray:
    """Greedy max-min dispersion subset of the lattice with ``count`` members."""
    chosen: list[int] = []
    # Seed with the extreme points (unit vectors) present in the lattice.
    for axis in range(lattice.shape[1]):
        extreme = np.argmax(lattice[:, axis])
        if extreme not in chosen and len(chosen) < count:
            chosen.append(int(extreme))
    if not chosen:
        chosen.append(int(rng.integers(len(lattice))))
    distances = np.full(len(lattice), np.inf)
    for idx in chosen:
        distances = np.minimum(distances, np.linalg.norm(lattice - lattice[idx], axis=1))
    while len(chosen) < count:
        candidate = int(np.argmax(distances))
        chosen.append(candidate)
        distances = np.minimum(distances, np.linalg.norm(lattice - lattice[candidate], axis=1))
    return lattice[np.asarray(chosen[:count])]


def neighborhoods(weights: np.ndarray, size: int) -> np.ndarray:
    """Index matrix of the ``size`` closest weight vectors (Euclidean) per vector.

    Row ``i`` lists the indices of the sub-problems whose weight vectors are
    closest to ``weights[i]`` (always including ``i`` itself first).
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    count = len(weights)
    size = max(1, min(size, count))
    result = np.empty((count, size), dtype=np.int64)
    for i in range(count):
        distances = np.linalg.norm(weights - weights[i], axis=1)
        order = np.argsort(distances, kind="stable")
        result[i] = order[:size]
    return result
