"""Tests for the Section V.C comparison metrics."""

import numpy as np
import pytest

from repro.experiments.metrics import (
    common_reference_point,
    edp_of_best_design,
    edp_overhead,
    phv_gain,
    select_design_by_thermal_threshold,
    speedup_factor,
)
from repro.moo.result import OptimizationResult, SearchSnapshot
from repro.simulation.simulator import NocSimulator


def _result(name, fronts, evals_per_iter=10):
    history = [
        SearchSnapshot(iteration=i, evaluations=evals_per_iter * (i + 1),
                       elapsed_seconds=0.1 * (i + 1), front=front)
        for i, front in enumerate(fronts)
    ]
    return OptimizationResult(
        algorithm=name,
        problem_name="toy",
        designs=["d%d" % i for i in range(len(fronts[-1]))],
        objectives=np.asarray(fronts[-1], dtype=float),
        history=history,
        evaluations=evals_per_iter * len(fronts),
        elapsed_seconds=0.1 * len(fronts),
    )


class TestReferencePoint:
    def test_reference_bounds_all_snapshots(self):
        slow = _result("slow", [[[4.0, 4.0]], [[3.5, 3.5]]])
        fast = _result("fast", [[[3.0, 3.0]], [[1.0, 1.0]]])
        reference = common_reference_point([slow, fast])
        assert np.all(reference >= 4.0)

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            common_reference_point([])


class TestSpeedupAndPhv:
    def test_faster_algorithm_gets_speedup_above_one(self):
        # "slow" needs 6 iterations to reach what "fast" reaches by iteration 2.
        slow_fronts = [[[10.0 - i, 10.0 - i]] for i in range(7)]
        fast_fronts = [[[10.0 - 3 * i, 10.0 - 3 * i]] for i in range(4)]
        slow = _result("slow", slow_fronts)
        fast = _result("fast", fast_fronts)
        reference = common_reference_point([slow, fast])
        factor = speedup_factor(slow, fast, reference)
        assert factor > 1.0

    def test_speedup_is_competitor_convergence_over_moela_effort(self):
        # competitor PHV 1, 4, then 9 flat: the rule triggers at snapshot 7 (80 evaluations)
        competitor = _result("c", [[[10.0, 10.0]], [[9.0, 9.0]]] + [[[8.0, 8.0]]] * 7)
        # MOELA reaches PHV 9 at its second snapshot (20 evaluations)
        moela = _result("m", [[[9.0, 9.0]], [[8.0, 8.0]]])
        assert speedup_factor(competitor, moela, np.array([11.0, 11.0])) == 4.0

    def test_speedup_uses_moela_full_effort_when_target_never_reached(self):
        competitor = _result("c", [[[10.0, 10.0]], [[9.0, 9.0]]] + [[[8.0, 8.0]]] * 7)
        moela = _result("m", [[[10.0, 10.0]], [[9.5, 9.5]]], evals_per_iter=5)
        assert speedup_factor(competitor, moela, np.array([11.0, 11.0])) == 8.0

    def test_phv_gain_sign(self):
        better = _result("better", [[[1.0, 1.0]]])
        worse = _result("worse", [[[3.0, 3.0]]])
        reference = common_reference_point([better, worse])
        assert phv_gain(better, worse, reference) > 0
        assert phv_gain(worse, better, reference) < 0

    def test_phv_gain_zero_for_identical_results(self):
        a = _result("a", [[[2.0, 2.0]]])
        b = _result("b", [[[2.0, 2.0]]])
        reference = common_reference_point([a, b])
        assert phv_gain(a, b, reference) == pytest.approx(0.0)

    def test_speedup_invalid_measure_rejected(self):
        a = _result("a", [[[2.0, 2.0]]])
        with pytest.raises(ValueError):
            speedup_factor(a, a, common_reference_point([a]), measure="bogus")


class TestEdpSelection:
    def test_selected_design_respects_thermal_threshold(self, tiny_workload, tiny_designs):
        simulator = NocSimulator(tiny_workload)
        result = OptimizationResult(
            algorithm="X",
            problem_name="toy",
            designs=list(tiny_designs),
            objectives=np.zeros((len(tiny_designs), 3)),
            history=[],
        )
        design, report = select_design_by_thermal_threshold(result, tiny_workload, simulator=simulator)
        temps = [simulator.simulate(d).peak_temperature for d in tiny_designs]
        threshold = min(temps) * 1.05
        assert report["peak_temperature"] <= threshold + 1e-9
        assert design in tiny_designs

    def test_selected_design_has_lowest_edp_within_threshold(self, tiny_workload, tiny_designs):
        simulator = NocSimulator(tiny_workload)
        result = OptimizationResult(
            algorithm="X", problem_name="toy", designs=list(tiny_designs),
            objectives=np.zeros((len(tiny_designs), 3)), history=[],
        )
        _, report = select_design_by_thermal_threshold(result, tiny_workload, simulator=simulator)
        reports = [simulator.simulate(d) for d in tiny_designs]
        threshold = min(r.peak_temperature for r in reports) * 1.05
        eligible_edps = [r.edp for r in reports if r.peak_temperature <= threshold]
        assert report["edp"] == pytest.approx(min(eligible_edps))

    def test_edp_of_best_design_matches_selection(self, tiny_workload, tiny_designs):
        simulator = NocSimulator(tiny_workload)
        result = OptimizationResult(
            algorithm="X", problem_name="toy", designs=list(tiny_designs),
            objectives=np.zeros((len(tiny_designs), 3)), history=[],
        )
        edp = edp_of_best_design(result, tiny_workload, simulator=simulator)
        _, report = select_design_by_thermal_threshold(result, tiny_workload, simulator=simulator)
        assert edp == pytest.approx(report["edp"])

    def test_empty_result_rejected(self, tiny_workload):
        empty = OptimizationResult("X", "toy", [], np.zeros((0, 3)), history=[])
        with pytest.raises(ValueError):
            select_design_by_thermal_threshold(empty, tiny_workload)

    def test_edp_overhead_definition(self):
        assert edp_overhead(110.0, 100.0) == pytest.approx(0.10)
        assert edp_overhead(90.0, 100.0) == pytest.approx(-0.10)
        with pytest.raises(ValueError):
            edp_overhead(1.0, 0.0)
