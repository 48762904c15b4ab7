"""Every design an optimizer scores is feasible.

MOELA and its baselines only build designs through feasibility-preserving
move operators (random generation, neighbour moves, crossover and mutation),
so no optimizer needs a repair step between variation and scoring.  This
pins that fact for every registered optimizer on the tiny 3-objective
problem: a problem wrapper checks each design handed to ``evaluate`` or
``evaluate_many`` against the Section III constraints.
"""

import pytest

from repro.core.problem import NocDesignProblem
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_algorithm
from repro.study.registry import default_registry


class FeasibilityCheckingProblem(NocDesignProblem):
    """Asserts that every design it is asked to score is feasible."""

    scored = 0

    def _check(self, design) -> None:
        assert self.is_feasible(design), self.feasibility_report(design).format()
        self.scored += 1

    def evaluate(self, design):
        self._check(design)
        return super().evaluate(design)

    def evaluate_many(self, designs):
        for design in designs:
            self._check(design)
        return super().evaluate_many(designs)


@pytest.mark.parametrize("name", default_registry().names())
def test_every_optimizer_scores_only_feasible_designs(tiny_workload, name):
    problem = FeasibilityCheckingProblem(tiny_workload, scenario=3)
    result = run_algorithm(name, problem, ExperimentConfig.smoke(), seed=13)
    # Every counted evaluation went through the checking wrapper.
    assert problem.scored == result.evaluations > 0


@pytest.mark.parametrize("name", default_registry().names())
def test_no_optimizer_reports_repair_metadata(tiny_workload, name):
    """With no repair step in the search loop, results carry no repair record."""
    problem = NocDesignProblem(tiny_workload, scenario=3)
    result = run_algorithm(name, problem, ExperimentConfig.smoke(), seed=13)
    assert "repair" not in result.metadata
