"""Tests for optimisation results and search snapshots."""

import numpy as np
import pytest

from repro.moo import result as result_module
from repro.moo.result import CONVERGENCE_WINDOW, OptimizationResult, SearchSnapshot


def _result_with_history():
    history = [
        SearchSnapshot(iteration=0, evaluations=10, elapsed_seconds=0.1, front=[[4.0, 4.0]]),
        SearchSnapshot(iteration=1, evaluations=20, elapsed_seconds=0.2, front=[[3.0, 3.0]]),
        SearchSnapshot(iteration=2, evaluations=30, elapsed_seconds=0.3, front=[[2.0, 3.0], [3.0, 2.0]]),
        SearchSnapshot(iteration=3, evaluations=40, elapsed_seconds=0.4, front=[[2.0, 2.0]]),
    ]
    return OptimizationResult(
        algorithm="TEST",
        problem_name="toy",
        designs=["a", "b", "c"],
        objectives=np.array([[2.0, 2.0], [2.5, 2.5], [1.5, 3.5]]),
        history=history,
        evaluations=40,
        elapsed_seconds=0.4,
    )


class _FixedHistory(OptimizationResult):
    """A result whose hypervolume history is given outright (it may be <= 0)."""

    def __init__(self, phv):
        history = [SearchSnapshot(i, 10 * (i + 1), 0.1 * (i + 1), [[0.0, 0.0]]) for i in range(len(phv))]
        super().__init__("TEST", "toy", [], np.zeros((0, 2)), history=history)
        self._phv = np.asarray(phv, dtype=np.float64)

    def hypervolume_history(self, reference):
        return self._phv


class TestSnapshot:
    def test_front_is_2d(self):
        snap = SearchSnapshot(0, 5, 0.1, [1.0, 2.0])
        assert snap.front.shape == (1, 2)

    def test_snapshot_hypervolume(self):
        snap = SearchSnapshot(0, 5, 0.1, [[1.0, 1.0]])
        assert snap.hypervolume(np.array([2.0, 2.0])) == pytest.approx(1.0)


class TestResult:
    def test_pareto_front_filters_dominated(self):
        result = _result_with_history()
        front = result.pareto_front()
        assert front.shape == (2, 2)
        assert [2.5, 2.5] not in front.tolist()

    def test_pareto_designs_align_with_front(self):
        result = _result_with_history()
        assert result.pareto_designs() == ["a", "c"]

    def test_final_hypervolume(self):
        result = _result_with_history()
        reference = np.array([5.0, 5.0])
        assert result.final_hypervolume(reference) > 0

    def test_hypervolume_history_is_monotone_here(self):
        result = _result_with_history()
        reference = np.array([5.0, 5.0])
        history = result.hypervolume_history(reference)
        assert len(history) == 4
        assert np.all(np.diff(history) >= 0)

    def test_effort_to_reach(self):
        result = _result_with_history()
        reference = np.array([5.0, 5.0])
        target = result.history[1].hypervolume(reference)
        assert result.effort_to_reach(target, reference, measure="evaluations") == 20
        assert result.effort_to_reach(target, reference, measure="iterations") == 1
        assert result.effort_to_reach(target, reference, measure="seconds") == pytest.approx(0.2)

    def test_effort_to_reach_unreachable_returns_none(self):
        result = _result_with_history()
        assert result.effort_to_reach(1e9, np.array([5.0, 5.0])) is None

    def test_effort_to_reach_invalid_measure(self):
        result = _result_with_history()
        with pytest.raises(ValueError):
            result.effort_to_reach(1.0, np.array([5.0, 5.0]), measure="bogus")

    def test_convergence_effort_defaults_to_last_snapshot(self):
        result = _result_with_history()
        reference = np.array([5.0, 5.0])
        effort, phv = result.convergence_effort(reference)
        assert effort == 40
        assert phv == pytest.approx(result.history[-1].hypervolume(reference))

    def test_convergence_effort_detects_plateau(self):
        history = [
            SearchSnapshot(i, 10 * (i + 1), 0.1 * (i + 1), [[1.0, 1.0]]) for i in range(8)
        ]
        result = OptimizationResult("TEST", "toy", ["a"], np.array([[1.0, 1.0]]), history=history)
        effort, _ = result.convergence_effort(np.array([2.0, 2.0]))
        # first snapshot after the window with zero improvement
        assert effort == 10 * (CONVERGENCE_WINDOW + 1)

    @pytest.mark.parametrize(
        "phv, tolerance, expected",
        [
            pytest.param([0.0] * 8, None, 7, id="zero-baseline-never-triggers"),
            pytest.param([-1.0] * 8, None, 7, id="negative-baseline-never-triggers"),
            pytest.param([1.0] * 5, None, 4, id="window-5-needs-6-snapshots"),
            pytest.param([1.0] * 6 + [9.0], None, 5, id="sixth-snapshot-can-trigger"),
            pytest.param([1.0] * 5 + [1.004, 2.0], None, 5, id="below-tolerance"),
            pytest.param([1.0] * 5 + [1.006, 1.0, 1.0], None, 6, id="above-tolerance"),
            pytest.param([1.0] * 7, 0.0, 6, id="tolerance-0-flat-never-converges"),
            pytest.param([1.0] * 6 + [0.5, 0.5], 0.0, 6, id="tolerance-0-regression-converges"),
            pytest.param([1.0, 2.0] + [3.0] * 9, None, 7, id="first-trigger-wins"),
            pytest.param([1.1**i for i in range(8)], None, 7, id="never-triggers-uses-last"),
            pytest.param(
                [1.1**i for i in range(8)], 0.9, 5, id="large-tolerance-converges-despite-improvement"
            ),
            pytest.param(
                [0.0] * 5 + [1.0] * 6, None, 10, id="zero-baselines-skipped-then-triggers"
            ),
        ],
    )
    def test_convergence_rule(self, monkeypatch, phv, tolerance, expected):
        """``expected`` is the index of the snapshot the rule settles on."""
        if tolerance is not None:
            monkeypatch.setattr(result_module, "CONVERGENCE_TOLERANCE", tolerance)
        result = _FixedHistory(phv)
        assert result.convergence_effort(None) == (10.0 * (expected + 1), phv[expected])
        assert result.convergence_effort(None, measure="iterations")[0] == expected

    def test_convergence_rule_reads_the_window_constant(self, monkeypatch):
        """A window of one compares each snapshot with the one before it."""
        monkeypatch.setattr(result_module, "CONVERGENCE_WINDOW", 1)
        result = _FixedHistory([1.0, 2.0, 2.0, 2.0])
        assert result.convergence_effort(None, measure="iterations") == (2.0, 2.0)

    def test_summary_fields(self):
        summary = _result_with_history().summary()
        assert summary["algorithm"] == "TEST"
        assert summary["pareto_size"] == 2
        assert summary["iterations"] == 3
