"""Tests for MOELA's decomposition-based EA step."""

import numpy as np
import pytest

from repro.core.ea import DecompositionEA
from repro.moo.scalarization import tchebycheff
from repro.moo.weights import neighborhoods, uniform_weights
from tests.moo.toyproblem import GridAnchorProblem


def _setup(population_size=10, num_objectives=2, seed=0):
    problem = GridAnchorProblem(num_objectives)
    rng = np.random.default_rng(seed)
    weights = uniform_weights(num_objectives, population_size, rng)
    neighbor_index = neighborhoods(weights, 4)
    designs = [problem.random_design(rng) for _ in range(population_size)]
    objectives = np.array([problem.evaluate(d) for d in designs])
    ea = DecompositionEA(problem, weights, neighbor_index, delta=0.9, replacement_limit=2)
    return problem, ea, designs, objectives, rng


class TestDecompositionEA:
    def test_evolve_improves_scalarised_fitness(self):
        problem, ea, designs, objectives, rng = _setup()
        reference = objectives.min(axis=0)
        before = [
            tchebycheff(objectives[i], ea.weights[i], reference) for i in range(len(designs))
        ]
        new_reference = ea.evolve(designs, objectives, reference, rng=rng)
        after = [
            tchebycheff(objectives[i], ea.weights[i], new_reference) for i in range(len(designs))
        ]
        assert sum(after) <= sum(before) + 1e-9

    def test_reference_point_never_worsens(self):
        problem, ea, designs, objectives, rng = _setup(seed=1)
        reference = objectives.min(axis=0)
        new_reference = ea.evolve(designs, objectives, reference, rng=rng)
        assert np.all(new_reference <= reference + 1e-12)

    def test_population_size_is_preserved(self):
        problem, ea, designs, objectives, rng = _setup(seed=2)
        reference = objectives.min(axis=0)
        ea.evolve(designs, objectives, reference, rng=rng)
        assert len(designs) == 10
        assert objectives.shape == (10, 2)

    def test_should_stop_aborts_early(self):
        problem, ea, designs, objectives, rng = _setup(seed=3)
        reference = objectives.min(axis=0)
        evaluations_before = problem.eval_count
        ea.evolve(designs, objectives, reference, rng=rng, should_stop=lambda: True)
        assert problem.eval_count == evaluations_before

    def test_custom_evaluate_many_callable_counts(self):
        problem, ea, designs, objectives, rng = _setup(seed=4)
        reference = objectives.min(axis=0)
        evaluations_before = problem.eval_count
        batches = []

        def counting(children):
            batches.append(list(children))
            return problem.evaluate_many(children)

        ea.evolve(designs, objectives, reference, rng=rng, evaluate_many=counting)
        # The whole brood (one child per sub-problem) is scored in one call,
        # and nothing else is evaluated.
        assert len(batches) == 1 and len(batches[0]) == len(designs)
        assert problem.eval_count - evaluations_before == len(designs)

    def test_invalid_parameters(self):
        problem = GridAnchorProblem(2)
        weights = uniform_weights(2, 6, 0)
        index = neighborhoods(weights, 3)
        with pytest.raises(ValueError):
            DecompositionEA(problem, weights, index, delta=1.5)
        with pytest.raises(ValueError):
            DecompositionEA(problem, weights, index, replacement_limit=0)
        with pytest.raises(ValueError):
            DecompositionEA(problem, weights, index, mutation_probability=2.0)
