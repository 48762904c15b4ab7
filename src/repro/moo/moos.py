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

from typing import Any

import numpy as np

from repro.moo.hypervolume import hypervolume, hypervolume_contribution
from repro.moo.learned_search import LearnedLocalSearch
from repro.moo.local_search import score_neighbor_brood
from repro.moo.problem import Problem
from repro.moo.scalarization import tchebycheff
from repro.moo.termination import Budget
from repro.moo.weights import uniform_weights
from repro.utils.validation import require_count


class MOOS(LearnedLocalSearch):
    """MOOS: learned start *and* direction selection with PHV-based acceptance."""

    name = "MOOS"

    def __init__(self, problem: Problem, num_directions: int = 12, **settings: Any):
        """``num_directions`` search directions; ``settings`` as in :class:`LearnedLocalSearch`."""
        super().__init__(problem, **settings)
        self.directions = uniform_weights(
            problem.num_objectives, require_count(num_directions, "num_directions", 2), self.rng
        )
        # (archive revision, reference, PHV) of the last full-archive PHV.
        self._archive_phv: tuple[int, np.ndarray, float] | None = None

    # ------------------------------------------------------------------ #
    # Algorithm
    # ------------------------------------------------------------------ #
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
        phv_before = self._archive_hypervolume()
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
        phv_after = self._archive_hypervolume()
        self._record_training_sample(start_features, phv_after - phv_before)

    def _archive_hypervolume(self) -> float:
        """PHV of the archive, recomputed only when its members or the reference changed.

        One search's ``phv_after`` is the next one's ``phv_before`` unless
        the archive changed in between, so half of the full-archive PHVs
        would repeat the call before them.
        """
        memo = self._archive_phv
        if memo is None or memo[0] != self.archive.revision or memo[1] is not self.reference:
            value = hypervolume(self.archive.objectives, self.reference)
            memo = self._archive_phv = (self.archive.revision, self.reference, value)
        return memo[2]
