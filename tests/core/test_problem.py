"""Tests for the NocDesignProblem binding."""

import numpy as np
import pytest

from repro.core.problem import NocDesignProblem
from repro.objectives.evaluator import SCENARIO_4OBJ


class TestNocDesignProblem:
    def test_name_mentions_workload_scenario_platform(self, tiny_problem):
        assert "BFS" in tiny_problem.name
        assert "3-obj" in tiny_problem.name

    def test_scenario_selection_by_int(self, tiny_workload):
        problem = NocDesignProblem(tiny_workload, scenario=4)
        assert problem.num_objectives == 4
        assert problem.objective_names == SCENARIO_4OBJ.objectives

    def test_scenario_object_accepted(self, tiny_workload):
        problem = NocDesignProblem(tiny_workload, scenario=SCENARIO_4OBJ)
        assert problem.num_objectives == 4

    def test_random_design_is_feasible(self, tiny_problem):
        design = tiny_problem.random_design(0)
        assert tiny_problem.is_feasible(design)

    def test_evaluate_returns_scenario_length_vector(self, tiny_problem, tiny_designs):
        assert tiny_problem.evaluate(tiny_designs[0]).shape == (3,)

    def test_neighbor_crossover_mutate_feasible(self, tiny_problem, tiny_designs, rng):
        neighbor = tiny_problem.neighbor(tiny_designs[0], rng)
        child = tiny_problem.crossover(tiny_designs[0], tiny_designs[1], rng)
        mutant = tiny_problem.mutate(tiny_designs[2], rng)
        for design in (neighbor, child, mutant):
            assert tiny_problem.is_feasible(design)

    def test_features_are_finite_and_fixed_length(self, tiny_problem, tiny_designs):
        features = tiny_problem.features(tiny_designs[0])
        assert features.shape == (len(tiny_problem.featurizer.feature_names),)
        assert np.all(np.isfinite(features))

    def test_design_key_is_hashable(self, tiny_problem, tiny_designs):
        key = tiny_problem.design_key(tiny_designs[0])
        assert {key: 1}

    def test_evaluations_counter_tracks_unique_designs(self, tiny_workload, tiny_designs):
        problem = NocDesignProblem(tiny_workload, scenario=3)
        problem.evaluate(tiny_designs[0])
        problem.evaluate(tiny_designs[0])
        problem.evaluate(tiny_designs[1])
        assert problem.evaluations == 2

    def test_full_report_contains_peak_temperature(self, tiny_problem, tiny_designs):
        report = tiny_problem.full_report(tiny_designs[0])
        assert "peak_temperature" in report
        assert report["thermal"] >= 0

    def test_mutation_strength_parameter(self, tiny_workload, tiny_designs, rng):
        problem = NocDesignProblem(tiny_workload, scenario=3, mutation_strength=3)
        mutated = problem.mutate(tiny_designs[0], rng)
        assert problem.is_feasible(mutated)
