"""What the MOO-STAGE and MOOS baselines share: settings, archive and learned model.

Both baselines run PHV-accepting local searches from starts a learned
evaluation function picks, and train that function (a random forest) on the
outcome of every search.  :class:`LearnedLocalSearch` holds their common
settings, seeds the archive, keeps the bounded training set, fits the forest
and mirrors the archive into the population; each subclass supplies its own
start selection and local search.
"""

from __future__ import annotations

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.moo.base import PopulationOptimizer
from repro.moo.hypervolume import reference_point_from
from repro.moo.problem import Problem
from repro.utils.rng import RngLike
from repro.utils.validation import require_count


class LearnedLocalSearch(PopulationOptimizer):
    """Base of the learned-restart local-search baselines (MOO-STAGE, MOOS)."""

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

    def initialize(self) -> None:
        super().initialize()
        self.reference = reference_point_from(self.objectives, margin=0.2)
        for design, objectives in zip(self.designs, self.objectives):
            self.archive.add(design, objectives)
        self._sync_population()

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
