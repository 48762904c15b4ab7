"""Tests for the generic greedy-descent local search."""

import numpy as np
import pytest

from repro.moo.local_search import greedy_descent
from repro.moo.problem import Problem


class QuadraticProblem(Problem):
    """Toy 2-objective problem over integer points: minimise distance to two anchors."""

    def __init__(self):
        self.anchor_a = np.array([0.0, 0.0])
        self.anchor_b = np.array([10.0, 10.0])
        self.eval_count = 0

    @property
    def num_objectives(self):
        return 2

    def evaluate(self, design):
        self.eval_count += 1
        point = np.asarray(design, dtype=float)
        return np.array(
            [np.sum((point - self.anchor_a) ** 2), np.sum((point - self.anchor_b) ** 2)]
        )

    def random_design(self, rng=None):
        rng = np.random.default_rng(rng)
        return tuple(rng.integers(0, 11, size=2).tolist())

    def neighbor(self, design, rng=None):
        rng = np.random.default_rng() if rng is None else rng
        x, y = design
        dx, dy = rng.integers(-1, 2, size=2)
        return (int(np.clip(x + dx, 0, 10)), int(np.clip(y + dy, 0, 10)))

    def crossover(self, a, b, rng=None):
        return (a[0], b[1])

    def mutate(self, design, rng=None):
        return self.neighbor(design, rng)


class TestGreedyDescent:
    def test_descends_single_objective(self):
        problem = QuadraticProblem()
        start = (10, 10)
        start_obj = problem.evaluate(start)
        result = greedy_descent(
            problem,
            start,
            start_obj,
            scalar_fn=lambda design, obj: obj[0],
            max_steps=60,
            neighbors_per_step=4,
            rng=np.random.default_rng(0),
        )
        assert result.best_value < result.start_value
        assert result.best_objectives[0] < start_obj[0]
        assert result.improvement > 0

    def test_reaches_optimum_with_enough_steps(self):
        problem = QuadraticProblem()
        start = (10, 10)
        result = greedy_descent(
            problem,
            start,
            problem.evaluate(start),
            scalar_fn=lambda design, obj: obj[0],
            max_steps=200,
            neighbors_per_step=6,
            patience=10,
            rng=np.random.default_rng(1),
        )
        assert result.best_design == (0, 0)

    def test_trajectory_contains_start_and_all_candidates(self):
        problem = QuadraticProblem()
        start = (5, 5)
        result = greedy_descent(
            problem,
            start,
            problem.evaluate(start),
            scalar_fn=lambda design, obj: obj[0],
            max_steps=5,
            neighbors_per_step=3,
            rng=np.random.default_rng(2),
        )
        assert result.trajectory[0].design == start
        assert len(result.trajectory) == result.evaluations + 1

    def test_stops_after_patience_without_improvement(self):
        problem = QuadraticProblem()
        start = (0, 0)  # already optimal for objective 0
        result = greedy_descent(
            problem,
            start,
            problem.evaluate(start),
            scalar_fn=lambda design, obj: obj[0],
            max_steps=50,
            neighbors_per_step=2,
            patience=2,
            rng=np.random.default_rng(3),
        )
        assert result.best_design == start
        assert result.evaluations <= 50 * 2

    def test_custom_evaluate_many_callable_is_used(self):
        problem = QuadraticProblem()
        batches = []

        def counting_evaluate_many(designs):
            batches.append(list(designs))
            return problem.evaluate_many(designs)

        start_obj = problem.evaluate((5, 5))
        result = greedy_descent(
            problem,
            (5, 5),
            start_obj,
            scalar_fn=lambda design, obj: obj[0],
            max_steps=3,
            neighbors_per_step=2,
            rng=np.random.default_rng(4),
            evaluate_many=counting_evaluate_many,
        )
        # One batch per descent step, and every scored neighbour (the whole
        # trajectory after the start) passed through the callable exactly once.
        assert batches and all(len(batch) == 2 for batch in batches)
        scored = [design for batch in batches for design in batch]
        assert scored == [point.design for point in result.trajectory[1:]]
        assert result.evaluations == len(scored) == problem.eval_count - 1

    def test_invalid_arguments(self):
        problem = QuadraticProblem()
        with pytest.raises(ValueError):
            greedy_descent(problem, (0, 0), problem.evaluate((0, 0)), lambda d, o: o[0], max_steps=0)
        with pytest.raises(ValueError):
            greedy_descent(
                problem, (0, 0), problem.evaluate((0, 0)), lambda d, o: o[0], neighbors_per_step=0
            )
        for patience in (0, -3):
            with pytest.raises(ValueError, match="patience must be >= 1"):
                greedy_descent(
                    problem, (0, 0), problem.evaluate((0, 0)), lambda d, o: o[0], patience=patience
                )
