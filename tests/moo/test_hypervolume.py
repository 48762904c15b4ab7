"""Tests for the hypervolume computation."""

import numpy as np
import pytest

from repro.moo.hypervolume import hypervolume, hypervolume_contribution, reference_point_from
from tests.oracles import pareto as oracle


class TestExactHypervolume:
    def test_single_point_2d(self):
        assert hypervolume([[1.0, 1.0]], [3.0, 3.0]) == pytest.approx(4.0)

    def test_single_point_3d(self):
        assert hypervolume([[0.0, 0.0, 0.0]], [1.0, 2.0, 3.0]) == pytest.approx(6.0)

    def test_two_non_dominated_points_2d(self):
        points = [[1.0, 2.0], [2.0, 1.0]]
        # Union of two boxes minus the overlap: 2*2 + 2*2 - 1*... compute manually:
        # box1 = (3-1)*(3-2)=2, box2 = (3-2)*(3-1)=2, overlap=(3-2)*(3-2)=1 -> 3
        assert hypervolume(points, [3.0, 3.0]) == pytest.approx(3.0)

    def test_dominated_point_adds_nothing(self):
        base = hypervolume([[1.0, 1.0]], [4.0, 4.0])
        extended = hypervolume([[1.0, 1.0], [2.0, 2.0]], [4.0, 4.0])
        assert base == pytest.approx(extended)

    def test_point_outside_reference_ignored(self):
        assert hypervolume([[5.0, 5.0]], [3.0, 3.0]) == 0.0
        assert hypervolume([[5.0, 1.0], [1.0, 1.0]], [3.0, 3.0]) == pytest.approx(4.0)

    def test_empty_set(self):
        assert hypervolume(np.empty((0, 2)), [1.0, 1.0]) == 0.0

    def test_adding_non_dominated_point_increases_hv(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0.2, 0.8, size=(6, 3))
        reference = np.full(3, 1.0)
        base = hypervolume(points, reference)
        better = np.vstack([points, [[0.05, 0.05, 0.05]]])
        assert hypervolume(better, reference) > base

    def test_known_3d_value(self):
        points = [[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]]
        reference = [4.0, 4.0, 4.0]
        # box1 = 3*2*1 = 6, box2 = 1*2*3 = 6, overlap = 1*2*1 = 2 -> 10
        assert hypervolume(points, reference) == pytest.approx(10.0)

    def test_duplicate_points_counted_once(self):
        points = [[1.0, 1.0], [1.0, 1.0]]
        assert hypervolume(points, [2.0, 2.0]) == pytest.approx(1.0)

    def test_mismatched_reference_rejected(self):
        with pytest.raises(ValueError):
            hypervolume([[1.0, 1.0]], [2.0, 2.0, 2.0])

    @pytest.mark.parametrize("num_objectives", [3, 5])
    @pytest.mark.parametrize("num_points", [1, 2, 8, 12])
    def test_matches_oracle_exactly(self, num_points, num_objectives):
        rng = np.random.default_rng(100 * num_points + num_objectives)
        points = rng.uniform(0.0, 0.9, size=(num_points, num_objectives))
        reference = np.ones(num_objectives)
        assert hypervolume(points, reference) == oracle.hypervolume(points, reference)

    def test_five_objective_front(self):
        rng = np.random.default_rng(7)
        points = rng.uniform(0.0, 1.0, size=(12, 5))
        reference = np.full(5, 1.2)
        value = hypervolume(points, reference)
        assert 0.0 < value < np.prod(reference)


class TestContribution:
    def test_contribution_matches_difference(self):
        rng = np.random.default_rng(1)
        front = rng.uniform(0.2, 0.9, size=(6, 3))
        reference = np.ones(3)
        point = np.array([0.15, 0.5, 0.4])
        expected = hypervolume(np.vstack([front, point]), reference) - hypervolume(front, reference)
        assert hypervolume_contribution(point, front, reference) == pytest.approx(expected)

    def test_dominated_point_has_zero_contribution(self):
        front = np.array([[0.1, 0.1]])
        assert hypervolume_contribution(np.array([0.5, 0.5]), front, np.ones(2)) == pytest.approx(0.0)

    def test_point_outside_reference_has_zero_contribution(self):
        front = np.array([[0.1, 0.1]])
        assert hypervolume_contribution(np.array([2.0, 0.0]), front, np.ones(2)) == 0.0

    def test_contribution_to_empty_front_is_box_volume(self):
        point = np.array([0.5, 0.5])
        assert hypervolume_contribution(point, np.empty((0, 2)), np.ones(2)) == pytest.approx(0.25)


class TestReferencePoint:
    def test_reference_dominates_all_points(self):
        rng = np.random.default_rng(2)
        points = rng.uniform(size=(10, 4))
        reference = reference_point_from(points, margin=0.1)
        assert np.all(reference > points.max(axis=0) - 1e-12)

    def test_degenerate_dimension_still_gets_margin(self):
        points = np.array([[1.0, 5.0], [2.0, 5.0]])
        reference = reference_point_from(points)
        assert reference[1] > 5.0
