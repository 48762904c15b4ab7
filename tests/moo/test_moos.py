"""Tests for the MOOS baseline."""

import numpy as np
import pytest

from repro.moo.dominance import dominates
from repro.moo.moos import MOOS
from repro.moo.termination import Budget
from tests.moo.toyproblem import GridAnchorProblem


class TestMOOS:
    def test_run_produces_non_dominated_archive(self):
        problem = GridAnchorProblem(2)
        optimizer = MOOS(
            problem,
            population_size=10,
            searches_per_iteration=2,
            local_search_steps=5,
            neighbors_per_step=2,
            rng=0,
        )
        result = optimizer.run(Budget.iterations(6))
        objectives = result.objectives
        for i in range(len(objectives)):
            for j in range(len(objectives)):
                if i != j:
                    assert not dominates(objectives[i], objectives[j])

    def test_archive_phv_never_decreases(self):
        problem = GridAnchorProblem(2)
        optimizer = MOOS(problem, population_size=10, searches_per_iteration=2,
                         local_search_steps=4, neighbors_per_step=2, rng=1)
        result = optimizer.run(Budget.iterations(8))
        reference = np.array([250.0, 250.0])
        history = result.hypervolume_history(reference)
        assert np.all(np.diff(history) >= -1e-9)

    def test_learned_model_is_trained_after_early_phase(self):
        problem = GridAnchorProblem(2)
        optimizer = MOOS(problem, population_size=8, searches_per_iteration=2,
                         local_search_steps=3, neighbors_per_step=2,
                         early_random_iterations=1, rng=2)
        optimizer.run(Budget.iterations(5))
        assert optimizer._model is not None

    def test_respects_evaluation_budget(self):
        problem = GridAnchorProblem(2)
        optimizer = MOOS(problem, population_size=8, searches_per_iteration=2,
                         local_search_steps=3, neighbors_per_step=2, rng=3)
        optimizer.run(Budget.evaluations(60))
        assert problem.eval_count <= 60 + 8

    def test_three_objective_run(self):
        problem = GridAnchorProblem(3)
        optimizer = MOOS(problem, population_size=8, searches_per_iteration=2,
                         local_search_steps=3, neighbors_per_step=2, rng=4)
        result = optimizer.run(Budget.iterations(4))
        assert result.objectives.shape[1] == 3

    def test_directions_live_on_simplex(self):
        problem = GridAnchorProblem(3)
        optimizer = MOOS(problem, population_size=8, num_directions=10, rng=5)
        assert optimizer.directions.shape == (10, 3)
        assert np.allclose(optimizer.directions.sum(axis=1), 1.0)

    def test_invalid_parameters(self):
        problem = GridAnchorProblem(2)
        with pytest.raises(ValueError):
            MOOS(problem, searches_per_iteration=0, rng=0)
        with pytest.raises(ValueError):
            MOOS(problem, local_search_steps=0, rng=0)
        with pytest.raises(ValueError):
            MOOS(problem, neighbors_per_step=0, rng=0)
        with pytest.raises(ValueError):
            MOOS(problem, num_directions=1, rng=0)
