"""Tests for the MOEA/D baseline."""

import numpy as np
import pytest

from repro.moo.hypervolume import hypervolume
from repro.moo.moead import MOEAD
from repro.moo.termination import Budget
from tests.moo.toyproblem import GridAnchorProblem


class TestMOEAD:
    def test_run_produces_result_with_history(self):
        problem = GridAnchorProblem(2)
        optimizer = MOEAD(problem, population_size=10, neighborhood_size=4, rng=0)
        result = optimizer.run(Budget.iterations(5))
        assert result.algorithm == "MOEA/D"
        assert len(result.designs) == 10
        assert result.objectives.shape == (10, 2)
        assert len(result.history) == 6  # initial snapshot + 5 iterations
        assert result.evaluations > 10

    def test_improves_hypervolume_over_random_init(self):
        problem = GridAnchorProblem(2)
        optimizer = MOEAD(problem, population_size=12, neighborhood_size=4, rng=1)
        result = optimizer.run(Budget.iterations(15))
        reference = np.array([250.0, 250.0])
        history = result.hypervolume_history(reference)
        assert history[-1] >= history[0]
        assert history[-1] > 0

    def test_respects_evaluation_budget(self):
        problem = GridAnchorProblem(2)
        optimizer = MOEAD(problem, population_size=8, neighborhood_size=3, rng=2)
        result = optimizer.run(Budget.evaluations(50))
        assert result.evaluations <= 50 + 8  # initial population + strict in-loop checks

    def test_reference_point_tracks_population_minimum(self):
        problem = GridAnchorProblem(2)
        optimizer = MOEAD(problem, population_size=8, neighborhood_size=3, rng=3)
        optimizer.run(Budget.iterations(3))
        assert np.all(optimizer.reference <= optimizer.objectives.min(axis=0) + 1e-12)

    def test_three_objective_run(self):
        problem = GridAnchorProblem(3)
        optimizer = MOEAD(problem, population_size=10, neighborhood_size=4, rng=4)
        result = optimizer.run(Budget.iterations(4))
        assert result.objectives.shape[1] == 3
        assert hypervolume(result.pareto_front(), np.full(3, 300.0)) > 0

    def test_weights_stored_in_metadata(self):
        problem = GridAnchorProblem(2)
        optimizer = MOEAD(problem, population_size=6, neighborhood_size=3, rng=5)
        result = optimizer.run(Budget.iterations(2))
        assert result.metadata["weights"].shape == (6, 2)

    def test_invalid_parameters(self):
        problem = GridAnchorProblem(2)
        with pytest.raises(ValueError):
            MOEAD(problem, population_size=1, rng=0)
        with pytest.raises(ValueError):
            MOEAD(problem, neighborhood_size=1, rng=0)
        with pytest.raises(ValueError):
            MOEAD(problem, delta=1.5, rng=0)
        with pytest.raises(ValueError):
            MOEAD(problem, replacement_limit=0, rng=0)
        with pytest.raises(ValueError):
            MOEAD(problem, mutation_probability=-0.1, rng=0)

    def test_reproducible_with_seed(self):
        result_a = MOEAD(GridAnchorProblem(2), population_size=8, rng=9).run(Budget.iterations(3))
        result_b = MOEAD(GridAnchorProblem(2), population_size=8, rng=9).run(Budget.iterations(3))
        assert np.allclose(result_a.objectives, result_b.objectives)
