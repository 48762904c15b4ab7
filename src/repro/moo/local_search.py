"""Generic greedy-descent local search over a problem's neighbourhood structure.

Used by MOELA (descending the weighted-sum scalarisation of Eq. 8), by the
MOO-STAGE/MOOS baselines (descending a PHV-based acceptance function), and by
the pure local-search baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.moo.problem import Problem
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_count

ScalarFn = Callable[[Any, np.ndarray], float]


def score_neighbor_brood(
    problem: Problem,
    current: Any,
    count: int,
    rng,
    evaluate_many: Callable[[list[Any]], np.ndarray] | None = None,
) -> tuple[list[Any], np.ndarray]:
    """Generate ``count`` random neighbours of ``current`` and score them in one call.

    ``evaluate_many`` defaults to ``problem.evaluate_many``.  All neighbours
    are generated *before* any evaluation, so a per-design scoring loop would
    consume the RNG identically and visit the same designs — the invariant
    the seeded batch-vs-scalar equivalence tests pin down.  Shared by
    :func:`greedy_descent` and the MOOS / MOO-STAGE PHV local searches.
    """
    candidates = [problem.neighbor(current, rng) for _ in range(count)]
    if evaluate_many is None:
        evaluate_many = problem.evaluate_many
    return candidates, np.asarray(evaluate_many(candidates), dtype=np.float64)


@dataclass(frozen=True)
class TrajectoryPoint:
    """One visited design during a local search."""

    design: Any
    objectives: np.ndarray
    value: float


@dataclass(frozen=True)
class LocalSearchResult:
    """Outcome of one greedy-descent local search."""

    best_design: Any
    best_objectives: np.ndarray
    best_value: float
    start_value: float
    trajectory: tuple[TrajectoryPoint, ...]
    evaluations: int

    @property
    def improvement(self) -> float:
        """Absolute improvement of the scalar value over the start design."""
        return self.start_value - self.best_value


def greedy_descent(
    problem: Problem,
    start: Any,
    start_objectives: np.ndarray,
    scalar_fn: ScalarFn,
    max_steps: int = 25,
    neighbors_per_step: int = 4,
    patience: int = 3,
    rng: RngLike = None,
    evaluate_many: Callable[[list[Any]], np.ndarray] | None = None,
) -> LocalSearchResult:
    """Greedy first/best-improvement descent on ``scalar_fn``.

    At every step ``neighbors_per_step`` random neighbours of the current
    design are generated and scored through one ``evaluate_many`` call, and
    the best one is accepted if it improves the scalar value; the search
    stops after ``patience`` consecutive non-improving steps or
    ``max_steps`` steps.

    Parameters
    ----------
    scalar_fn:
        Maps ``(design, objectives)`` to the scalar value being minimised.
    evaluate_many:
        Batch evaluation callable mapping a list of designs to an objective
        matrix; defaults to ``problem.evaluate_many`` (pass the optimiser's
        counting batch wrapper to track evaluation effort).
    """
    require_count(max_steps, "max_steps", 1)
    require_count(neighbors_per_step, "neighbors_per_step", 1)
    require_count(patience, "patience", 1)
    rng = ensure_rng(rng)

    current = start
    current_obj = np.asarray(start_objectives, dtype=np.float64)
    current_value = float(scalar_fn(current, current_obj))
    start_value = current_value
    trajectory = [TrajectoryPoint(current, current_obj.copy(), current_value)]
    evaluations = 0
    stall = 0

    for _ in range(max_steps):
        best_candidate = None
        best_candidate_obj = None
        best_candidate_value = current_value
        candidates, candidate_objs = score_neighbor_brood(
            problem, current, neighbors_per_step, rng, evaluate_many=evaluate_many
        )
        evaluations += len(candidates)
        for candidate, candidate_obj in zip(candidates, candidate_objs):
            value = float(scalar_fn(candidate, candidate_obj))
            trajectory.append(TrajectoryPoint(candidate, candidate_obj.copy(), value))
            if value < best_candidate_value:
                best_candidate = candidate
                best_candidate_obj = candidate_obj
                best_candidate_value = value
        if best_candidate is None:
            stall += 1
            if stall >= patience:
                break
        else:
            stall = 0
            current = best_candidate
            current_obj = best_candidate_obj
            current_value = best_candidate_value

    return LocalSearchResult(
        best_design=current,
        best_objectives=current_obj.copy(),
        best_value=current_value,
        start_value=start_value,
        trajectory=tuple(trajectory),
        evaluations=evaluations,
    )
