"""MOO-STAGE baseline: STAGE-style learned start selection with PHV local search.

Joardar et al. (2019) extend the single-objective STAGE algorithm to MOO: a
greedy local search accepts neighbours that increase the Pareto hypervolume of
the current archive, and a learned evaluation function (random forest) trained
on past trajectories predicts, for a candidate starting design, the archive
hypervolume the search will reach — so later searches start from the most
promising designs instead of random restarts.
"""

from __future__ import annotations

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.moo.base import PopulationOptimizer
from repro.moo.hypervolume import hypervolume, hypervolume_contribution, reference_point_from
from repro.moo.local_search import score_neighbor_brood
from repro.moo.problem import Problem
from repro.moo.termination import Budget
from repro.utils.rng import RngLike
from repro.utils.validation import require_count


class MOOStage(PopulationOptimizer):
    """MOO-STAGE: PHV-greedy local search with learned restart selection."""

    name = "MOO-STAGE"

    def __init__(
        self,
        problem: Problem,
        population_size: int = 50,
        searches_per_iteration: int = 4,
        local_search_steps: int = 15,
        neighbors_per_step: int = 3,
        early_random_iterations: int = 2,
        max_training_samples: int = 10_000,
        forest_size: int = 20,
        rng: RngLike = None,
    ):
        super().__init__(problem, population_size, rng)
        self.searches_per_iteration = require_count(
            searches_per_iteration, "searches_per_iteration", 1
        )
        self.local_search_steps = require_count(local_search_steps, "local_search_steps", 1)
        self.neighbors_per_step = require_count(neighbors_per_step, "neighbors_per_step", 1)
        self.early_random_iterations = require_count(
            early_random_iterations, "early_random_iterations", 0
        )
        self.max_training_samples = require_count(max_training_samples, "max_training_samples", 1)
        self.forest_size = require_count(forest_size, "forest_size", 1)
        self.reference: np.ndarray | None = None
        self._train_features: list[np.ndarray] = []
        self._train_targets: list[float] = []
        self._model: RandomForestRegressor | None = None

    # ------------------------------------------------------------------ #
    # Algorithm
    # ------------------------------------------------------------------ #
    def initialize(self) -> None:
        super().initialize()
        self.reference = reference_point_from(self.objectives, margin=0.2)
        for design, objectives in zip(self.designs, self.objectives):
            self.archive.add(design, objectives)
        self._sync_population()

    def step(self, iteration: int, budget: Budget) -> None:
        starts = self._select_starts(iteration)
        for start_design, start_objectives in starts:
            if budget.exhausted(iteration, self.evaluations, self.elapsed()):
                break
            self._phv_local_search(start_design, start_objectives, iteration, budget)
        self._train_model()
        self._sync_population()

    # ------------------------------------------------------------------ #
    # Start selection (the STAGE idea)
    # ------------------------------------------------------------------ #
    def _select_starts(self, iteration: int) -> list[tuple]:
        candidates = list(zip(self.archive.designs, self.archive.objectives))
        if not candidates:
            candidates = list(zip(self.designs, self.objectives))
        count = min(self.searches_per_iteration, len(candidates))
        if iteration <= self.early_random_iterations or self._model is None:
            indices = self.rng.choice(len(candidates), size=count, replace=False)
            return [candidates[int(i)] for i in indices]
        features = np.array(
            [self.problem.features(design) for design, _ in candidates], dtype=np.float64
        )
        predicted = self._model.predict(features)
        order = np.argsort(-predicted, kind="stable")
        return [candidates[int(i)] for i in order[:count]]

    # ------------------------------------------------------------------ #
    # PHV-greedy local search
    # ------------------------------------------------------------------ #
    def _phv_local_search(self, start_design, start_objectives, iteration: int, budget: Budget) -> None:
        """PHV-greedy local search, scoring each step's neighbour brood in one batch.

        Neighbours are generated before any evaluation and scored through one
        counting :meth:`~repro.moo.base.PopulationOptimizer.evaluate_batch`
        call per step; the archive snapshot the gains are measured against is
        taken first, so the trajectory matches a per-neighbour loop that
        interleaves evaluation with the acceptance test exactly.
        """
        current = start_design
        current_obj = np.asarray(start_objectives, dtype=np.float64)
        start_features = self.problem.features(start_design)
        for _ in range(self.local_search_steps):
            if budget.exhausted(iteration, self.evaluations, self.elapsed()):
                break
            front = self.archive.objectives
            candidates, candidate_objs = score_neighbor_brood(
                self.problem, current, self.neighbors_per_step, self.rng,
                evaluate_many=self.evaluate_batch,
            )
            best_candidate = None
            best_candidate_obj = None
            best_gain = 0.0
            for candidate, candidate_obj in zip(candidates, candidate_objs):
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

    # ------------------------------------------------------------------ #
    # Learned evaluation function
    # ------------------------------------------------------------------ #
    def _record_training_sample(self, features: np.ndarray, target: float) -> None:
        self._train_features.append(np.asarray(features, dtype=np.float64))
        self._train_targets.append(float(target))
        if len(self._train_features) > self.max_training_samples:
            self._train_features = self._train_features[-self.max_training_samples :]
            self._train_targets = self._train_targets[-self.max_training_samples :]

    def _train_model(self) -> None:
        if len(self._train_features) < 4:
            return
        X = np.asarray(self._train_features, dtype=np.float64)
        y = np.asarray(self._train_targets, dtype=np.float64)
        model = RandomForestRegressor(
            n_estimators=self.forest_size, max_depth=8, rng=self.rng
        )
        model.fit(X, y)
        self._model = model

    # ------------------------------------------------------------------ #
    # Population synchronisation
    # ------------------------------------------------------------------ #
    def _sync_population(self) -> None:
        designs = self.archive.designs
        objectives = self.archive.objectives
        if len(designs) == 0:
            return
        self.designs = designs
        self.objectives = objectives
