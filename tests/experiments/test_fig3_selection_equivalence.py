"""The Fig. 3 design selection against the retired simulate-everything rule.

``select_design_by_thermal_threshold`` reads each design's peak temperature
from the simulator's thermal model and simulates only the designs within the
threshold (or the coolest one).  ``tests/oracles/metrics.py`` keeps the rule
it replaced, which simulated every design.  The chosen design and its report
must match byte for byte: the same design object and the same JSON text.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import select_design_by_thermal_threshold
from repro.experiments.runner import make_problem, run_algorithm
from repro.moo.result import OptimizationResult
from repro.moo.termination import Budget
from repro.noc.constraints import random_design
from repro.noc.platform import PlatformConfig
from repro.simulation.simulator import NocSimulator
from tests.oracles.metrics import select_design_by_thermal_threshold_reference

PLATFORMS = [PlatformConfig.tiny_2x2x2(), PlatformConfig.small_3x3x3()]
APPLICATIONS = ("BFS", "HOT")
THRESHOLDS = (0.0, 0.05, 1.0)


class CountingSimulator(NocSimulator):
    """Counts ``simulate()`` calls."""

    simulations = 0

    def simulate(self, design):
        self.simulations += 1
        return super().simulate(design)


def _populations(platform, application):
    """A searched final population and a population of random designs."""
    experiment = replace(ExperimentConfig.smoke(), platform=platform)
    problem = make_problem(experiment, application, 5)
    searched = run_algorithm("NSGA-II", problem, experiment, budget=Budget.evaluations(60))
    designs = [random_design(platform, seed) for seed in range(10)]
    drawn = OptimizationResult("random", problem.name, designs, np.zeros((len(designs), 5)))
    return problem.workload, (searched, drawn)


@pytest.mark.parametrize("application", APPLICATIONS)
@pytest.mark.parametrize("platform", PLATFORMS, ids=lambda platform: platform.name)
def test_selection_matches_the_simulate_everything_oracle(platform, application):
    workload, results = _populations(platform, application)
    for result in results:
        for fraction in THRESHOLDS:
            simulator = CountingSimulator(workload)
            design, report = select_design_by_thermal_threshold(
                result, workload, threshold_fraction=fraction, simulator=simulator
            )
            oracle = NocSimulator(workload)
            expected_design, expected = select_design_by_thermal_threshold_reference(
                result, oracle, threshold_fraction=fraction
            )
            assert design is expected_design
            assert json.dumps(report) == json.dumps(expected)
            temperatures = [oracle.simulate(d).peak_temperature for d in result.designs]
            eligible = [t for t in temperatures if t <= min(temperatures) * (1.0 + fraction)]
            assert simulator.simulations == len(eligible)
