"""NSGA-II: non-dominated-sorting genetic algorithm.

Deb et al. (2002).  Not part of the paper's headline comparison (MOEA/D and
MOOS are), but NSGA-II is repeatedly cited as the standard EA for manycore
design problems and is included as an additional baseline and for ablations.
"""

from __future__ import annotations

import numpy as np

from repro.moo.base import PopulationOptimizer
from repro.moo.dominance import crowding_distance, fast_non_dominated_sort
from repro.moo.problem import Problem
from repro.moo.termination import Budget
from repro.utils.rng import RngLike
from repro.utils.validation import require_probability


class NSGA2(PopulationOptimizer):
    """NSGA-II with binary tournament selection and crowded elitist survival."""

    name = "NSGA-II"

    def __init__(
        self,
        problem: Problem,
        population_size: int = 50,
        crossover_probability: float = 0.9,
        mutation_probability: float = 0.3,
        rng: RngLike = None,
    ):
        super().__init__(problem, population_size, rng)
        self.crossover_probability = require_probability(
            crossover_probability, "crossover_probability"
        )
        self.mutation_probability = require_probability(
            mutation_probability, "mutation_probability"
        )
        self._ranks: np.ndarray | None = None
        self._crowding: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Algorithm
    # ------------------------------------------------------------------ #
    def initialize(self) -> None:
        super().initialize()
        self._refresh_rank_and_crowding()

    def step(self, iteration: int, budget: Budget) -> None:
        """One generation: mate a whole offspring brood, score it in one batch.

        The brood is generated first (tournament draws, crossover, mutation —
        all RNG consumption) and then scored through a single
        :meth:`~repro.moo.base.PopulationOptimizer.evaluate_batch` call, so the
        problem's vectorised evaluation path amortises routing and caching
        across the generation.  :meth:`brood_limit` trims the brood when the
        evaluation budget would exhaust mid-generation, so the generation stops
        at the same evaluation count, and visits the same designs, as a
        per-child loop that checks the budget before every child.
        """
        if budget.exhausted(iteration, self.evaluations, self.elapsed()):
            return
        brood_size = self.brood_limit(budget, self.population_size)
        if brood_size == 0:
            return
        offspring_designs = [self._mate_one() for _ in range(brood_size)]
        offspring_objectives = self.evaluate_batch(offspring_designs)
        combined_designs = self.designs + offspring_designs
        combined_objectives = np.vstack([self.objectives, offspring_objectives])
        self._survival(combined_designs, combined_objectives)

    def _mate_one(self):
        """Produce one child via tournament selection, crossover and mutation."""
        parent_a = self._tournament()
        parent_b = self._tournament()
        if self.rng.random() < self.crossover_probability:
            child = self.problem.crossover(self.designs[parent_a], self.designs[parent_b], self.rng)
        else:
            child = self.designs[parent_a]
        if self.rng.random() < self.mutation_probability:
            child = self.problem.mutate(child, self.rng)
        return child

    # ------------------------------------------------------------------ #
    # Selection and survival
    # ------------------------------------------------------------------ #
    def _tournament(self) -> int:
        a, b = self.rng.choice(self.population_size, size=2, replace=False)
        a, b = int(a), int(b)
        if self._ranks[a] != self._ranks[b]:
            return a if self._ranks[a] < self._ranks[b] else b
        return a if self._crowding[a] >= self._crowding[b] else b

    def _survival(self, designs: list, objectives: np.ndarray) -> None:
        fronts = fast_non_dominated_sort(objectives)
        survivors: list[int] = []
        for front in fronts:
            if len(survivors) + len(front) <= self.population_size:
                survivors.extend(front)
                continue
            remaining = self.population_size - len(survivors)
            if remaining > 0:
                front_obj = objectives[front]
                distances = crowding_distance(front_obj)
                order = np.argsort(-distances, kind="stable")
                survivors.extend([front[int(i)] for i in order[:remaining]])
            break
        self.designs = [designs[i] for i in survivors]
        self.objectives = objectives[survivors]
        self._refresh_rank_and_crowding()

    def _refresh_rank_and_crowding(self) -> None:
        fronts = fast_non_dominated_sort(self.objectives)
        ranks = np.zeros(len(self.objectives), dtype=np.int64)
        crowding = np.zeros(len(self.objectives), dtype=np.float64)
        for rank, front in enumerate(fronts):
            ranks[front] = rank
            crowding[front] = crowding_distance(self.objectives[front])
        self._ranks = ranks
        self._crowding = crowding
