"""Tests for the MOO-STAGE baseline."""

import numpy as np
import pytest

from repro.moo.dominance import dominates
from repro.moo.moo_stage import MOOStage
from repro.moo.termination import Budget
from tests.moo.toyproblem import GridAnchorProblem


class TestMOOStage:
    def test_run_produces_non_dominated_archive(self):
        problem = GridAnchorProblem(2)
        optimizer = MOOStage(problem, population_size=10, searches_per_iteration=2,
                             local_search_steps=4, neighbors_per_step=2, rng=0)
        result = optimizer.run(Budget.iterations(6))
        objectives = result.objectives
        for i in range(len(objectives)):
            for j in range(len(objectives)):
                if i != j:
                    assert not dominates(objectives[i], objectives[j])

    def test_archive_phv_never_decreases(self):
        problem = GridAnchorProblem(2)
        optimizer = MOOStage(problem, population_size=10, searches_per_iteration=2,
                             local_search_steps=4, neighbors_per_step=2, rng=1)
        result = optimizer.run(Budget.iterations(8))
        reference = np.array([250.0, 250.0])
        history = result.hypervolume_history(reference)
        assert np.all(np.diff(history) >= -1e-9)

    def test_model_trained_and_used_for_start_selection(self):
        problem = GridAnchorProblem(2)
        optimizer = MOOStage(problem, population_size=8, searches_per_iteration=2,
                             local_search_steps=3, neighbors_per_step=2,
                             early_random_iterations=1, rng=2)
        optimizer.run(Budget.iterations(5))
        assert optimizer._model is not None
        starts = optimizer._select_starts(iteration=10)
        assert len(starts) == 2

    def test_training_set_capped(self):
        problem = GridAnchorProblem(2)
        optimizer = MOOStage(problem, population_size=8, searches_per_iteration=2,
                             local_search_steps=2, neighbors_per_step=2,
                             max_training_samples=5, rng=3)
        optimizer.run(Budget.iterations(6))
        assert len(optimizer._train_features) <= 5

    def test_respects_evaluation_budget(self):
        problem = GridAnchorProblem(2)
        optimizer = MOOStage(problem, population_size=8, searches_per_iteration=2,
                             local_search_steps=3, neighbors_per_step=2, rng=4)
        optimizer.run(Budget.evaluations(50))
        assert problem.eval_count <= 50 + 8

    def test_invalid_parameters(self):
        problem = GridAnchorProblem(2)
        with pytest.raises(ValueError):
            MOOStage(problem, searches_per_iteration=0, rng=0)
        with pytest.raises(ValueError):
            MOOStage(problem, local_search_steps=0, rng=0)
        with pytest.raises(ValueError):
            MOOStage(problem, neighbors_per_step=0, rng=0)
