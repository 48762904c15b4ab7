"""Tests for budgets and the stopwatch."""

import time

import pytest

from repro.moo.termination import Budget, StopWatch


class TestBudget:
    def test_iteration_budget(self):
        budget = Budget.iterations(5)
        assert not budget.exhausted(4, 100, 10.0)
        assert budget.exhausted(5, 0, 0.0)

    def test_evaluation_budget(self):
        budget = Budget.evaluations(100)
        assert not budget.exhausted(1000, 99, 0.0)
        assert budget.exhausted(0, 100, 0.0)

    def test_seconds_budget(self):
        budget = Budget.seconds(1.5)
        assert not budget.exhausted(0, 0, 1.4)
        assert budget.exhausted(0, 0, 1.5)

    def test_any_condition_stops(self):
        budget = Budget(max_iterations=10, max_evaluations=100)
        assert budget.exhausted(10, 5, 0.0)
        assert budget.exhausted(2, 100, 0.0)
        assert not budget.exhausted(2, 5, 1e9)

    def test_empty_budget_rejected(self):
        with pytest.raises(ValueError):
            Budget()

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            Budget(max_iterations=0)
        with pytest.raises(ValueError):
            Budget(max_evaluations=0)
        with pytest.raises(ValueError):
            Budget(max_seconds=0.0)


class TestStopWatch:
    def test_elapsed_increases(self):
        watch = StopWatch()
        first = watch.elapsed()
        time.sleep(0.01)
        assert watch.elapsed() > first
