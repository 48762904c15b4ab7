"""Tests for the experiment runner."""

import numpy as np
import pytest

from repro import Study
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ALGORITHMS, make_problem, run_algorithm
from repro.moo.termination import Budget


@pytest.fixture(scope="module")
def smoke_experiment():
    return ExperimentConfig.smoke()


class TestMakeProblem:
    def test_problem_matches_request(self, smoke_experiment):
        problem = make_problem(smoke_experiment, "BFS", 3)
        assert problem.num_objectives == 3
        assert problem.workload.name == "BFS"
        assert problem.config == smoke_experiment.platform


class TestRunAlgorithm:
    @pytest.mark.parametrize("algorithm", ["MOELA", "MOEA/D", "MOOS", "MOO-STAGE", "NSGA-II"])
    def test_every_algorithm_runs(self, smoke_experiment, algorithm):
        problem = make_problem(smoke_experiment, "BFS", 3)
        result = run_algorithm(algorithm, problem, smoke_experiment, budget=Budget.evaluations(60))
        assert result.evaluations > 0
        assert result.objectives.shape[1] == 3
        assert len(result.history) >= 1

    def test_unknown_algorithm_rejected(self, smoke_experiment):
        problem = make_problem(smoke_experiment, "BFS", 3)
        with pytest.raises(ValueError):
            run_algorithm("SIMULATED-ANNEALING", problem, smoke_experiment)

    def test_algorithm_list_is_published(self):
        assert "MOELA" in ALGORITHMS
        assert "MOEA/D" in ALGORITHMS and "MOOS" in ALGORITHMS

    def test_seeds_are_deterministic(self, smoke_experiment):
        problem_a = make_problem(smoke_experiment, "BFS", 3)
        problem_b = make_problem(smoke_experiment, "BFS", 3)
        result_a = run_algorithm("MOEA/D", problem_a, smoke_experiment, budget=Budget.evaluations(60))
        result_b = run_algorithm("MOEA/D", problem_b, smoke_experiment, budget=Budget.evaluations(60))
        assert np.allclose(result_a.objectives, result_b.objectives)


class TestStudyRunsMatchRunAlgorithm:
    def test_study_group_equals_direct_runs_on_one_problem(self, smoke_experiment):
        """Study.run shares one problem per (application, scenario) group and
        gives every algorithm its derived seed, exactly like direct
        run_algorithm calls on one shared problem."""
        problem = make_problem(smoke_experiment, "BFS", 3)
        direct = {
            name: run_algorithm(name, problem, smoke_experiment) for name in ("MOELA", "MOEA/D")
        }
        result = Study(preset="smoke").algorithms("MOELA", "MOEA/D").run()
        assert set(result.runs) == {("BFS", 3)}
        group = result.runs[("BFS", 3)]
        assert list(group) == ["MOELA", "MOEA/D"]
        for name, expected in direct.items():
            np.testing.assert_array_equal(group[name].objectives, expected.objectives)
            assert group[name].evaluations == expected.evaluations
