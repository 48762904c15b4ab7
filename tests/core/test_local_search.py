"""Tests for MOELA's Eq.-8 local search."""

import numpy as np
import pytest

from repro.core.local_search import MoelaLocalSearch
from repro.moo.scalarization import weighted_distance
from tests.moo.toyproblem import GridAnchorProblem


class TestMoelaLocalSearch:
    def _search(self, problem, start, weight, steps=30, neighbors=4, rng=0):
        start_obj = problem.evaluate(start)
        reference = np.zeros(problem.num_objectives)
        searcher = MoelaLocalSearch(problem, max_steps=steps, neighbors_per_step=neighbors, patience=5)
        return searcher.search(start, start_obj, np.asarray(weight), reference, rng=np.random.default_rng(rng))

    def test_improves_weighted_distance(self):
        problem = GridAnchorProblem(2)
        outcome = self._search(problem, (10, 10), [1.0, 0.0])
        assert outcome.value <= weighted_distance(
            problem.evaluate((10, 10)), np.array([1.0, 0.0]), np.zeros(2)
        )
        assert outcome.improvement >= 0

    def test_weight_direction_steers_the_search(self):
        problem = GridAnchorProblem(2)
        toward_first = self._search(problem, (5, 5), [1.0, 0.0], steps=60, neighbors=6)
        toward_second = self._search(problem, (5, 5), [0.0, 1.0], steps=60, neighbors=6)
        # Anchor 0 is (0,0) and anchor 1 is (10,10): each search should end
        # closer to its weighted anchor.
        assert toward_first.objectives[0] < toward_second.objectives[0]
        assert toward_second.objectives[1] < toward_first.objectives[1]

    def test_training_samples_cover_trajectory_with_final_outcome(self):
        problem = GridAnchorProblem(2)
        outcome = self._search(problem, (8, 8), [0.5, 0.5], steps=5, neighbors=2)
        assert len(outcome.samples) == outcome.evaluations + 1
        outcomes = {sample.outcome for sample in outcome.samples}
        assert outcomes == {outcome.value}
        for sample in outcome.samples:
            assert np.allclose(sample.weight, [0.5, 0.5])
            assert sample.features.shape == (4,)

    def test_scale_parameter_changes_objective_trade_off(self):
        problem = GridAnchorProblem(2)
        start = (5, 5)
        start_obj = problem.evaluate(start)
        searcher = MoelaLocalSearch(problem, max_steps=40, neighbors_per_step=4)
        reference = np.zeros(2)
        unscaled = searcher.search(start, start_obj, np.array([0.5, 0.5]), reference,
                                   rng=np.random.default_rng(0))
        scaled = searcher.search(start, start_obj, np.array([0.5, 0.5]), reference,
                                 scale=np.array([1.0, 100.0]), rng=np.random.default_rng(0))
        # Heavily down-weighting the second objective should let the search end
        # with a first objective at least as good as the unscaled search.
        assert scaled.objectives[0] <= unscaled.objectives[0] + 1e-9

    def test_counts_evaluations_through_custom_callable(self):
        problem = GridAnchorProblem(2)
        count = {"n": 0}

        def counting(designs):
            count["n"] += len(designs)
            return problem.evaluate_many(designs)

        searcher = MoelaLocalSearch(problem, max_steps=4, neighbors_per_step=2)
        outcome = searcher.search((5, 5), problem.evaluate((5, 5)), np.array([0.5, 0.5]),
                                  np.zeros(2), rng=np.random.default_rng(1), evaluate_many=counting)
        assert count["n"] == outcome.evaluations

    def test_invalid_parameters(self):
        problem = GridAnchorProblem(2)
        with pytest.raises(ValueError):
            MoelaLocalSearch(problem, max_steps=0)
        with pytest.raises(ValueError):
            MoelaLocalSearch(problem, neighbors_per_step=0)
        for patience in (0, -3):
            with pytest.raises(ValueError, match="patience must be >= 1"):
                MoelaLocalSearch(problem, patience=patience)
