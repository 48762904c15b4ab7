"""MOOS baseline: ML-guided local search with learned direction adjustment.

Deshwal et al. (2019) improve on MOO-STAGE by letting the learned model also
steer the *direction* of the local search: instead of only predicting good
restart designs, MOOS scores (design, scalarisation-direction) pairs and runs
each local search along the most promising direction, while still accepting
moves that grow the archive's Pareto hypervolume.  The repeated hypervolume
evaluations inside the acceptance test are what make MOOS (and MOO-STAGE)
expensive as objective counts grow — the overhead MOELA's Eq.-8 local search
avoids.
"""

from __future__ import annotations

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.moo.base import PopulationOptimizer
from repro.moo.hypervolume import hypervolume, hypervolume_contribution, reference_point_from
from repro.moo.local_search import score_neighbor_brood
from repro.moo.problem import Problem
from repro.moo.scalarization import tchebycheff
from repro.moo.termination import Budget
from repro.moo.weights import uniform_weights
from repro.utils.rng import RngLike
from repro.utils.validation import require_count


class MOOS(PopulationOptimizer):
    """MOOS: learned start *and* direction selection with PHV-based acceptance."""

    name = "MOOS"

    def __init__(
        self,
        problem: Problem,
        population_size: int = 50,
        searches_per_iteration: int = 4,
        local_search_steps: int = 15,
        neighbors_per_step: int = 3,
        num_directions: int = 12,
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
        self.directions = uniform_weights(
            problem.num_objectives, require_count(num_directions, "num_directions", 2), self.rng
        )
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
        plans = self._select_search_plans(iteration)
        for start_design, start_objectives, direction in plans:
            if budget.exhausted(iteration, self.evaluations, self.elapsed()):
                break
            self._directed_local_search(start_design, start_objectives, direction, iteration, budget)
        self._train_model()
        self._sync_population()

    # ------------------------------------------------------------------ #
    # Search-plan selection (learned start + direction)
    # ------------------------------------------------------------------ #
    def _select_search_plans(self, iteration: int) -> list[tuple]:
        candidates = list(zip(self.archive.designs, self.archive.objectives))
        if not candidates:
            candidates = list(zip(self.designs, self.objectives))
        count = min(self.searches_per_iteration, len(candidates))
        if iteration <= self.early_random_iterations or self._model is None:
            indices = self.rng.choice(len(candidates), size=count, replace=False)
            plans = []
            for i in indices:
                design, objectives = candidates[int(i)]
                direction = self.directions[int(self.rng.integers(len(self.directions)))]
                plans.append((design, objectives, direction))
            return plans

        # Score every (candidate, direction) pair with the learned model in
        # one vectorised predict over the full cross product, then greedily
        # take the top pairs while keeping starts distinct.
        base_features = np.asarray(
            [self.problem.features(design) for design, _ in candidates], dtype=np.float64
        )
        num_candidates, num_directions = len(candidates), len(self.directions)
        feature_rows = np.hstack(
            [
                np.repeat(base_features, num_directions, axis=0),
                np.tile(self.directions, (num_candidates, 1)),
            ]
        )
        predictions = self._model.predict(feature_rows)
        # Stable argsort keeps the (candidate, direction)-lexicographic tie
        # order of the previous per-pair Python sort.
        order = np.argsort(-np.asarray(predictions, dtype=np.float64), kind="stable")
        plans = []
        used_starts: set[int] = set()
        for flat in order:
            c_idx, d_idx = divmod(int(flat), num_directions)
            if c_idx in used_starts:
                continue
            design, objectives = candidates[c_idx]
            plans.append((design, objectives, self.directions[d_idx]))
            used_starts.add(c_idx)
            if len(plans) >= count:
                break
        return plans

    # ------------------------------------------------------------------ #
    # Directed PHV local search
    # ------------------------------------------------------------------ #
    def _directed_local_search(
        self, start_design, start_objectives, direction: np.ndarray, iteration: int, budget: Budget
    ) -> None:
        """Directed PHV local search, scoring each step's neighbour brood in one batch.

        Every step generates all ``neighbors_per_step`` neighbours first, then
        scores them through one counting
        :meth:`~repro.moo.base.PopulationOptimizer.evaluate_batch` call.  The
        archive snapshot (``front``) is taken before the brood is archived and
        the acceptance test runs on the scored matrix afterwards, so the
        trajectory is identical to a per-neighbour loop that interleaves
        evaluation with the acceptance test.
        """
        current = start_design
        current_obj = np.asarray(start_objectives, dtype=np.float64)
        ideal = self.archive.objectives.min(axis=0) if len(self.archive) else current_obj
        start_features = np.concatenate([self.problem.features(start_design), direction])
        phv_before = hypervolume(self.archive.objectives, self.reference)
        current_scalar = tchebycheff(current_obj, direction, ideal)
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
            best_score = 0.0
            best_scalar = current_scalar
            for candidate, candidate_obj in zip(candidates, candidate_objs):
                gain = hypervolume_contribution(candidate_obj, front, self.reference)
                scalar = tchebycheff(candidate_obj, direction, ideal)
                # Accept moves that grow the archive PHV, preferring moves that
                # also advance along the chosen scalarisation direction.
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
