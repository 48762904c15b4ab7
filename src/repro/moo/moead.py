"""MOEA/D: multi-objective evolutionary algorithm based on decomposition.

Baseline algorithm from Zhang & Li (2007), used by the paper as the
EA-only comparison point.  The problem is decomposed into ``N`` Tchebycheff
sub-problems defined by evenly spread weight vectors; each generation mates
parents drawn (with probability ``delta``) from the sub-problem's
neighbourhood and replaces at most ``replacement_limit`` neighbours whose
scalarised fitness the offspring improves.
"""

from __future__ import annotations

import numpy as np

from repro.moo.base import PopulationOptimizer
from repro.moo.problem import Problem
from repro.moo.scalarization import tchebycheff
from repro.moo.termination import Budget
from repro.moo.weights import neighborhoods, uniform_weights
from repro.utils.rng import RngLike
from repro.utils.validation import require_count, require_probability


class MOEAD(PopulationOptimizer):
    """MOEA/D with Tchebycheff decomposition and neighbourhood mating."""

    name = "MOEA/D"

    def __init__(
        self,
        problem: Problem,
        population_size: int = 50,
        neighborhood_size: int = 10,
        delta: float = 0.9,
        replacement_limit: int = 2,
        mutation_probability: float = 0.3,
        rng: RngLike = None,
    ):
        super().__init__(problem, population_size, rng)
        self.neighborhood_size = min(
            require_count(neighborhood_size, "neighborhood_size", 2), self.population_size
        )
        self.delta = require_probability(delta, "delta")
        self.replacement_limit = require_count(replacement_limit, "replacement_limit", 1)
        self.mutation_probability = require_probability(
            mutation_probability, "mutation_probability"
        )
        self.weights = uniform_weights(problem.num_objectives, self.population_size, self.rng)
        self.neighbor_index = neighborhoods(self.weights, self.neighborhood_size)
        self.reference: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Algorithm
    # ------------------------------------------------------------------ #
    def initialize(self) -> None:
        super().initialize()
        self.reference = self.objectives.min(axis=0)

    def objective_scale(self) -> np.ndarray:
        """Per-objective normalisation span (population nadir minus ideal point)."""
        span = self.objectives.max(axis=0) - self.reference
        span[span <= 0] = 1.0
        return span

    def step(self, iteration: int, budget: Budget) -> None:
        for sub_problem in range(self.population_size):
            if budget.exhausted(iteration, self.evaluations, self.elapsed()):
                return
            pool = self._mating_pool(sub_problem)
            parent_a, parent_b = self.rng.choice(pool, size=2, replace=False)
            child = self.problem.crossover(
                self.designs[int(parent_a)], self.designs[int(parent_b)], self.rng
            )
            if self.rng.random() < self.mutation_probability:
                child = self.problem.mutate(child, self.rng)
            child_obj = self.evaluate(child)
            self.reference = np.minimum(self.reference, child_obj)
            self._update_neighbors(sub_problem, pool, child, child_obj)

    def _mating_pool(self, sub_problem: int) -> np.ndarray:
        if self.rng.random() < self.delta:
            return self.neighbor_index[sub_problem]
        return np.arange(self.population_size)

    def _update_neighbors(
        self, sub_problem: int, pool: np.ndarray, child, child_obj: np.ndarray
    ) -> None:
        scale = self.objective_scale()
        replaced = 0
        order = self.rng.permutation(len(pool))
        for idx in order:
            neighbor = int(pool[int(idx)])
            current_value = tchebycheff(
                self.objectives[neighbor], self.weights[neighbor], self.reference, scale
            )
            child_value = tchebycheff(child_obj, self.weights[neighbor], self.reference, scale)
            if child_value < current_value:
                self.designs[neighbor] = child
                self.objectives[neighbor] = child_obj
                replaced += 1
                if replaced >= self.replacement_limit:
                    break

    def build_result(self):
        result = super().build_result()
        result.metadata["weights"] = self.weights.copy()
        return result
