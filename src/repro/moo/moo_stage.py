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

from repro.moo.hypervolume import hypervolume, hypervolume_contribution
from repro.moo.learned_search import LearnedLocalSearch
from repro.moo.local_search import score_neighbor_brood
from repro.moo.termination import Budget


class MOOStage(LearnedLocalSearch):
    """MOO-STAGE: PHV-greedy local search with learned restart selection."""

    name = "MOO-STAGE"

    # ------------------------------------------------------------------ #
    # Algorithm
    # ------------------------------------------------------------------ #
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
