"""MOELA: the hybrid multi-objective evolutionary/learning framework (Algorithm 1).

Each iteration of MOELA runs three integrated stages:

1. **ML-guided local search** — the ``n_local`` most promising population
   members (chosen at random during the first ``iter_early`` iterations,
   afterwards by the learned ``Eval`` model, Algorithm 2) are improved by a
   greedy descent on the weighted-sum distance to the reference point
   (Eq. 8) along their assigned weight vectors; trajectories are accumulated
   into ``S_train``.
2. **Eval training** — a random forest is re-fitted on ``S_train`` to predict
   local-search outcomes from design features and weights.
3. **Decomposition-based EA** — a MOEA/D-style pass (Tchebycheff update,
   neighbourhood mating with probability ``delta``) spreads the local-search
   gains across the population while preserving diversity.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.core.config import MOELAConfig
from repro.core.ea import DecompositionEA
from repro.core.local_search import MoelaLocalSearch
from repro.core.ml_guide import EvalModel, MLGuide, TrainingSample
from repro.moo.base import PopulationOptimizer
from repro.moo.problem import Problem
from repro.moo.scalarization import tchebycheff
from repro.moo.termination import Budget
from repro.moo.weights import neighborhoods, uniform_weights
from repro.utils.rng import RngLike, ensure_rng


class MOELA(PopulationOptimizer):
    """The MOELA optimiser (Algorithm 1 of the paper)."""

    name = "MOELA"

    def __init__(
        self,
        problem: Problem,
        config: MOELAConfig | None = None,
        rng: RngLike = None,
    ):
        config = config if config is not None else MOELAConfig()
        super().__init__(
            problem,
            config.population_size,
            ensure_rng(rng if rng is not None else config.seed),
        )
        self.config = config
        self.weights = uniform_weights(problem.num_objectives, config.population_size, self.rng)
        self.neighbor_index = neighborhoods(
            self.weights, min(config.neighborhood_size, config.population_size)
        )
        self.local_search = MoelaLocalSearch(
            problem,
            max_steps=config.local_search_steps,
            neighbors_per_step=config.local_search_neighbors,
            patience=config.local_search_patience,
        )
        self.eval_model = EvalModel(
            n_estimators=config.forest_size, max_depth=config.forest_depth, rng=self.rng
        )
        self.guide = MLGuide(self.eval_model)
        self.ea = DecompositionEA(
            problem,
            self.weights,
            self.neighbor_index,
            delta=config.delta,
            replacement_limit=config.replacement_limit,
            mutation_probability=config.mutation_probability,
        )
        self.training_set: list[TrainingSample] = []
        self.reference: np.ndarray | None = None
        self._feature_cache: OrderedDict = OrderedDict()

    # ------------------------------------------------------------------ #
    # Algorithm 1
    # ------------------------------------------------------------------ #
    def initialize(self) -> None:
        super().initialize()
        self.reference = self.objectives.min(axis=0)
        self.training_set = []
        self._feature_cache = OrderedDict()

    def objective_scale(self) -> np.ndarray:
        """Per-objective normalisation span (population nadir minus ideal point)."""
        span = self.objectives.max(axis=0) - self.reference
        span[span <= 0] = 1.0
        return span

    def step(self, iteration: int, budget: Budget) -> None:
        stop = lambda: budget.exhausted(iteration, self.evaluations, self.elapsed())  # noqa: E731

        # -- stage 1: ML-guided local searches (Algorithm 1, lines 3-9) -- #
        start_indices = self._select_start_indices(iteration)
        for index in start_indices:
            if stop():
                return
            self._run_local_search(int(index))

        # -- stage 2: train the Eval model (line 11) ---------------------- #
        self.eval_model.train(self.training_set)

        # -- stage 3: decomposition-based EA (line 12) -------------------- #
        if stop():
            return
        self.reference = self.ea.evolve(
            self.designs,
            self.objectives,
            self.reference,
            scale=self.objective_scale(),
            rng=self.rng,
            evaluate_many=self.evaluate_batch,
            should_stop=stop,
            max_children=budget.remaining_evaluations(self.evaluations),
        )

    # ------------------------------------------------------------------ #
    # Local-search stage
    # ------------------------------------------------------------------ #
    def _select_start_indices(self, iteration: int) -> np.ndarray:
        n_local = min(self.config.n_local, self.population_size)
        if iteration <= self.config.iter_early or not self.eval_model.is_trained:
            return self.rng.choice(self.population_size, size=n_local, replace=False)
        features = np.array([self._features(d) for d in self.designs], dtype=np.float64)
        return self.guide.select(features, self.weights, n_local, rng=self.rng)

    def _run_local_search(self, index: int) -> None:
        outcome = self.local_search.search(
            self.designs[index],
            self.objectives[index],
            self.weights[index],
            self.reference,
            scale=self.objective_scale(),
            rng=self.rng,
            evaluate_many=self.evaluate_batch,
        )
        self.reference = np.minimum(self.reference, outcome.objectives)
        self._update_population(outcome.design, outcome.objectives, index)
        self._extend_training_set(outcome.samples)

    def _update_population(self, design, objectives: np.ndarray, index: int) -> None:
        """Population update after a local search (Eq. 10).

        The improved design replaces the sub-problem it was searched for when
        it improves that sub-problem's Tchebycheff value, and may additionally
        replace up to ``replacement_limit`` neighbours it improves.
        """
        scale = self.objective_scale()
        candidates = [index] + [int(i) for i in self.neighbor_index[index] if int(i) != index]
        replaced = 0
        for member in candidates:
            incumbent = tchebycheff(
                self.objectives[member], self.weights[member], self.reference, scale
            )
            challenger = tchebycheff(objectives, self.weights[member], self.reference, scale)
            if challenger < incumbent:
                self.designs[member] = design
                self.objectives[member] = np.asarray(objectives, dtype=np.float64)
                replaced += 1
                if replaced >= self.config.replacement_limit:
                    break

    def _extend_training_set(self, samples) -> None:
        self.training_set.extend(samples)
        cap = self.config.max_training_samples
        if len(self.training_set) > cap:
            # Keep the most recent samples (the paper caps |S_train| at 10 K).
            self.training_set = self.training_set[-cap:]

    def _features(self, design) -> np.ndarray:
        """Feature vector of a design, memoised with LRU-bounded eviction.

        The cache holds ``4 * population_size`` entries and evicts the least
        recently used one, so still-live population members are never dropped
        wholesale mid-iteration (the previous flush-everything policy threw
        away features the current selection round was about to reuse).
        """
        key = self.problem.design_key(design)
        if key in self._feature_cache:
            self._feature_cache.move_to_end(key)
            return self._feature_cache[key]
        features = self.problem.features(design)
        self._feature_cache[key] = features
        if len(self._feature_cache) > 4 * self.config.population_size:
            self._feature_cache.popitem(last=False)
        return features

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def build_result(self):
        result = super().build_result()
        result.metadata["weights"] = self.weights.copy()
        result.metadata["training_samples"] = len(self.training_set)
        result.metadata["eval_trained"] = self.eval_model.is_trained
        return result
