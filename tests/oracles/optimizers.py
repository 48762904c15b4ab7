"""Per-design scoring: the scalar optimizer loops the batched broods replaced.

Every optimizer in ``repro`` scores its broods (initial population, EA
offspring, local-search neighbours) through one
:meth:`~repro.moo.base.PopulationOptimizer.evaluate_batch` call.  The
pre-batch implementations scored one design at a time through
:meth:`~repro.moo.base.PopulationOptimizer.evaluate`, checking the budget
between designs.  They live on here, verbatim, as oracles:

* :class:`PerDesignEvaluation` routes every ``evaluate_batch`` call through a
  loop of ``evaluate`` calls, exactly the old scalar branches of
  ``initialize``, ``DecompositionEA.evolve`` and ``score_neighbor_brood``;
* :class:`ScalarNSGA2`, :class:`ScalarMOOS` and :class:`ScalarMOOStage`
  override the batched brood method with the deleted scalar twin's body,
  which interleaves evaluation with the budget check or acceptance test.

``tests/moo/test_batch_equivalence.py`` and
``tests/moo/test_routing_cache_equivalence.py`` check that each optimizer
visits exactly the designs its oracle visits, with the same evaluation counts.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.moela import MOELA
from repro.moo.hypervolume import hypervolume, hypervolume_contribution
from repro.moo.moo_stage import MOOStage
from repro.moo.moos import MOOS
from repro.moo.nsga2 import NSGA2
from repro.moo.scalarization import tchebycheff
from repro.moo.termination import Budget


class PerDesignEvaluation:
    """Mixin scoring every brood through one counting ``evaluate`` call per design."""

    def evaluate_batch(self, designs: list[Any]) -> np.ndarray:
        return np.array([self.evaluate(design) for design in designs], dtype=np.float64)


class ScalarNSGA2(PerDesignEvaluation, NSGA2):
    """NSGA-II generating and scoring its offspring one child at a time."""

    def step(self, iteration: int, budget: Budget) -> None:
        offspring_designs = []
        offspring_objectives = []
        while len(offspring_designs) < self.population_size:
            if budget.exhausted(iteration, self.evaluations, self.elapsed()):
                break
            child = self._mate_one()
            offspring_designs.append(child)
            offspring_objectives.append(self.evaluate(child))
        if not offspring_designs:
            return
        combined_designs = self.designs + offspring_designs
        combined_objectives = np.vstack([self.objectives, np.asarray(offspring_objectives)])
        self._survival(combined_designs, combined_objectives)


class ScalarMOOS(PerDesignEvaluation, MOOS):
    """MOOS interleaving neighbour evaluation with its acceptance test."""

    def _directed_local_search(
        self, start_design, start_objectives, direction: np.ndarray, iteration: int, budget: Budget
    ) -> None:
        current = start_design
        current_obj = np.asarray(start_objectives, dtype=np.float64)
        ideal = self.archive.objectives.min(axis=0) if len(self.archive) else current_obj
        start_features = np.concatenate([self.problem.features(start_design), direction])
        phv_before = hypervolume(self.archive.objectives, self.reference)
        current_scalar = tchebycheff(current_obj, direction, ideal)
        for _ in range(self.local_search_steps):
            if budget.exhausted(iteration, self.evaluations, self.elapsed()):
                break
            best_candidate = None
            best_candidate_obj = None
            best_score = 0.0
            best_scalar = current_scalar
            front = self.archive.objectives
            for _ in range(self.neighbors_per_step):
                candidate = self.problem.neighbor(current, self.rng)
                candidate_obj = self.evaluate(candidate)
                gain = hypervolume_contribution(candidate_obj, front, self.reference)
                scalar = tchebycheff(candidate_obj, direction, ideal)
                if gain > 0.0 and (gain > best_score or scalar < best_scalar):
                    best_score = gain
                    best_scalar = scalar
                    best_candidate = candidate
                    best_candidate_obj = candidate_obj
            if best_candidate is None:
                break
            current = best_candidate
            current_obj = best_candidate_obj
            current_scalar = best_scalar
            self.archive.add(current, current_obj)
        phv_after = hypervolume(self.archive.objectives, self.reference)
        self._record_training_sample(start_features, phv_after - phv_before)


class ScalarMOOStage(PerDesignEvaluation, MOOStage):
    """MOO-STAGE interleaving neighbour evaluation with its acceptance test."""

    def _phv_local_search(
        self, start_design, start_objectives, iteration: int, budget: Budget
    ) -> None:
        current = start_design
        current_obj = np.asarray(start_objectives, dtype=np.float64)
        start_features = self.problem.features(start_design)
        for _ in range(self.local_search_steps):
            if budget.exhausted(iteration, self.evaluations, self.elapsed()):
                break
            best_candidate = None
            best_candidate_obj = None
            best_gain = 0.0
            front = self.archive.objectives
            for _ in range(self.neighbors_per_step):
                candidate = self.problem.neighbor(current, self.rng)
                candidate_obj = self.evaluate(candidate)
                gain = hypervolume_contribution(candidate_obj, front, self.reference)
                if gain > best_gain:
                    best_gain = gain
                    best_candidate = candidate
                    best_candidate_obj = candidate_obj
            if best_candidate is None:
                break
            current = best_candidate
            current_obj = best_candidate_obj
            self.archive.add(current, current_obj)
        final_phv = hypervolume(self.archive.objectives, self.reference)
        self._record_training_sample(start_features, final_phv)


class ScalarMOELA(PerDesignEvaluation, MOELA):
    """MOELA scoring its EA offspring and local-search neighbours one at a time."""
