"""MOELA's decomposition-aware local search (Section IV.B).

Each local search greedily descends the weighted-sum distance to the
reference point (Eq. 8) for one sub-problem's weight vector.  Besides the
improved design it returns the visited trajectory converted into ``S_train``
samples: every visited design is labelled with the *final* value the search
reached, which is exactly what the STAGE-style ``Eval`` model must predict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ml_guide import TrainingSample
from repro.moo.local_search import LocalSearchResult, greedy_descent
from repro.moo.problem import Problem
from repro.moo.scalarization import weighted_distance
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_count


@dataclass(frozen=True)
class MoelaSearchOutcome:
    """Result of one Eq.-8 local search plus its training samples."""

    design: object
    objectives: np.ndarray
    value: float
    improvement: float
    samples: tuple[TrainingSample, ...]
    evaluations: int


class MoelaLocalSearch:
    """Greedy descent on ``g(Obj | w, z) = sum_i w_i |Obj_i - z_i|`` (Eq. 8)."""

    def __init__(
        self,
        problem: Problem,
        max_steps: int = 25,
        neighbors_per_step: int = 4,
        patience: int = 3,
    ):
        self.problem = problem
        self.max_steps = require_count(max_steps, "max_steps", 1)
        self.neighbors_per_step = require_count(neighbors_per_step, "neighbors_per_step", 1)
        self.patience = require_count(patience, "patience", 1)

    def search(
        self,
        start_design,
        start_objectives: np.ndarray,
        weight: np.ndarray,
        reference: np.ndarray,
        scale: np.ndarray | None = None,
        rng: RngLike = None,
        evaluate_many=None,
    ) -> MoelaSearchOutcome:
        """Run one local search for the sub-problem defined by ``weight``.

        Parameters
        ----------
        reference:
            The reference point ``z`` (running ideal point of the population).
        scale:
            Optional per-objective normalisation span (nadir minus ideal).
        evaluate_many:
            Batch evaluation callable scoring each step's neighbours in one
            call; defaults to ``problem.evaluate_many`` (pass the optimiser's
            counting batch wrapper to count evaluations).
        """
        rng = ensure_rng(rng)
        weight = np.asarray(weight, dtype=np.float64)
        reference = np.asarray(reference, dtype=np.float64)

        def scalar_fn(_design, objectives) -> float:
            return weighted_distance(objectives, weight, reference, scale)

        result: LocalSearchResult = greedy_descent(
            self.problem,
            start_design,
            start_objectives,
            scalar_fn,
            max_steps=self.max_steps,
            neighbors_per_step=self.neighbors_per_step,
            patience=self.patience,
            rng=rng,
            evaluate_many=evaluate_many,
        )
        samples = tuple(
            TrainingSample(
                features=self.problem.features(point.design),
                weight=weight.copy(),
                outcome=result.best_value,
            )
            for point in result.trajectory
        )
        return MoelaSearchOutcome(
            design=result.best_design,
            objectives=result.best_objectives,
            value=result.best_value,
            improvement=result.improvement,
            samples=samples,
            evaluations=result.evaluations,
        )
