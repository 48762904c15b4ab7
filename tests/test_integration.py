"""End-to-end integration tests across the whole stack.

These tests exercise the full pipeline (workload generation -> NoC design
problem -> optimisers -> metrics -> tables) at the smallest scale that still
goes through every code path the benchmark harness uses.
"""

import numpy as np
import pytest

from repro import Study
from repro.core.config import MOELAConfig
from repro.core.moela import MOELA
from repro.core.problem import NocDesignProblem
from repro.experiments.metrics import common_reference_point, phv_gain, speedup_factor
from repro.experiments.tables import BASELINES, build_figure3
from repro.moo.moead import MOEAD
from repro.moo.termination import Budget
from repro.simulation.simulator import NocSimulator
from repro.workloads.registry import get_workload


class TestEndToEndSearch:
    def test_moela_full_pipeline_on_tiny_platform(self, tiny_problem_5obj):
        config = MOELAConfig.smoke()
        result = MOELA(tiny_problem_5obj, config, rng=3).run(Budget.evaluations(150))
        # Final designs are feasible, objective history is recorded, the front
        # is non-empty and every objective is finite.
        assert len(result.history) >= 2
        assert np.all(np.isfinite(result.objectives))
        front = result.pareto_front()
        assert 1 <= len(front) <= len(result.designs)
        for design in result.pareto_designs():
            assert tiny_problem_5obj.is_feasible(design)

    def test_moela_and_moead_share_problem_and_are_comparable(self, tiny_workload):
        problem = NocDesignProblem(tiny_workload, scenario=3)
        budget = Budget.evaluations(150)
        moela = MOELA(problem, MOELAConfig.smoke(), rng=1).run(budget)
        moead = MOEAD(problem, population_size=6, neighborhood_size=3, rng=1).run(budget)
        reference = common_reference_point([moela, moead])
        assert moela.final_hypervolume(reference) > 0
        assert moead.final_hypervolume(reference) > 0
        assert np.isfinite(phv_gain(moela, moead, reference))
        assert speedup_factor(moead, moela, reference) >= 0

    def test_selected_design_can_be_simulated(self, tiny_problem):
        result = MOELA(tiny_problem, MOELAConfig.smoke(), rng=2).run(Budget.evaluations(100))
        simulator = NocSimulator(tiny_problem.workload)
        report = simulator.simulate(result.pareto_designs()[0])
        assert report.edp > 0


class TestHarnessIntegration:
    def test_smoke_experiment_produces_all_artifacts(self):
        study = Study(preset="smoke").algorithms("MOELA", *BASELINES)
        experiment = study.experiment()
        result = study.run()
        table1 = result.table1()
        table2 = result.table2()
        figure3 = build_figure3(experiment, result.runs)
        assert table1.cells and table2.cells and figure3.cells
        # Every run stayed within the evaluation budget (plus initial population slack).
        for _, _, _, run in result:
            assert run.evaluations <= experiment.max_evaluations + experiment.population_size + 8

    def test_comparison_runs_share_the_same_workload(self):
        study = Study(preset="smoke").algorithms("MOELA", "MOEA/D")
        experiment = study.experiment()
        workload = get_workload("BFS", experiment.platform, seed=experiment.seed)
        for _, _, _, result in study.run():
            assert result.problem_name.startswith(workload.name)
