"""Tests for the NSGA-II baseline."""

import numpy as np
import pytest

from repro.moo.dominance import non_dominated_mask
from repro.moo.nsga2 import NSGA2
from repro.moo.termination import Budget
from tests.moo.toyproblem import GridAnchorProblem


class TestNSGA2:
    def test_run_produces_fixed_size_population(self):
        problem = GridAnchorProblem(2)
        optimizer = NSGA2(problem, population_size=10, rng=0)
        result = optimizer.run(Budget.iterations(5))
        assert len(result.designs) == 10
        assert result.objectives.shape == (10, 2)

    def test_population_quality_improves(self):
        problem = GridAnchorProblem(2)
        optimizer = NSGA2(problem, population_size=12, rng=1)
        result = optimizer.run(Budget.iterations(15))
        reference = np.array([250.0, 250.0])
        history = result.hypervolume_history(reference)
        assert history[-1] > history[0]

    def test_survivors_prefer_first_front(self):
        problem = GridAnchorProblem(2)
        optimizer = NSGA2(problem, population_size=10, rng=2)
        optimizer.run(Budget.iterations(10))
        # After convergence most of the population should be mutually non-dominated.
        mask = non_dominated_mask(optimizer.objectives)
        assert mask.sum() >= 5

    def test_evaluation_budget_respected(self):
        problem = GridAnchorProblem(2)
        optimizer = NSGA2(problem, population_size=10, rng=3)
        optimizer.run(Budget.evaluations(40))
        assert problem.eval_count <= 40 + 10

    def test_three_objectives(self):
        problem = GridAnchorProblem(3)
        result = NSGA2(problem, population_size=10, rng=4).run(Budget.iterations(4))
        assert result.objectives.shape[1] == 3

    def test_invalid_probabilities(self):
        problem = GridAnchorProblem(2)
        with pytest.raises(ValueError):
            NSGA2(problem, crossover_probability=1.5, rng=0)
        with pytest.raises(ValueError):
            NSGA2(problem, mutation_probability=-0.2, rng=0)

    def test_reproducible_with_seed(self):
        a = NSGA2(GridAnchorProblem(2), population_size=8, rng=7).run(Budget.iterations(3))
        b = NSGA2(GridAnchorProblem(2), population_size=8, rng=7).run(Budget.iterations(3))
        assert np.allclose(a.objectives, b.objectives)
