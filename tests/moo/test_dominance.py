"""Tests for Pareto-dominance utilities."""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.moo.dominance import (
    crowding_distance,
    dominance_matrix,
    dominates,
    fast_non_dominated_sort,
    non_dominated_mask,
)


class TestDominates:
    def test_strict_domination(self):
        assert dominates([1.0, 1.0], [2.0, 2.0])

    def test_weak_improvement_in_one_objective(self):
        assert dominates([1.0, 2.0], [1.0, 3.0])

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates([1.0, 2.0], [1.0, 2.0])

    def test_incomparable_vectors(self):
        assert not dominates([1.0, 3.0], [2.0, 1.0])
        assert not dominates([2.0, 1.0], [1.0, 3.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominates([1.0, 2.0], [1.0, 2.0, 3.0])


class TestDominanceMatrix:
    def test_entry_ij_means_row_i_dominates_row_j(self):
        objectives = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 3.0], [1.0, 1.0]])
        expected = [[dominates(a, b) for b in objectives] for a in objectives]
        assert dominance_matrix(objectives).tolist() == expected
        assert dominance_matrix(objectives)[0].tolist() == [False, True, True, False]

    def test_empty_matrix(self):
        assert dominance_matrix(np.empty((0, 3))).shape == (0, 0)


class TestNonDominated:
    def test_mask_identifies_front(self):
        objectives = np.array([[1.0, 4.0], [2.0, 2.0], [4.0, 1.0], [3.0, 3.0]])
        mask = non_dominated_mask(objectives)
        assert mask.tolist() == [True, True, True, False]

    def test_single_point_is_non_dominated(self):
        assert non_dominated_mask(np.array([[1.0, 2.0]])).tolist() == [True]

    def test_duplicates_are_both_kept(self):
        objectives = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        assert non_dominated_mask(objectives).tolist() == [True, True, False]

    def test_large_matrix_mask_is_exact_and_row_blocked(self):
        # 2,000 integer points with the same coordinate sum are mutually
        # non-dominated; a copy of each shifted by +1 in every objective is
        # dominated by its original.  A single 4,000 x 4,000 x 5 broadcast would
        # allocate ~160 MB of comparison temporaries; the row-blocked kernel
        # stays far below that.
        simplex = [c for c in itertools.product(range(14), repeat=5) if sum(c) == 13][:2000]
        front = np.array(simplex, dtype=np.float64)
        objectives = np.vstack([front, front + 1.0])
        tracemalloc.start()
        try:
            mask = non_dominated_mask(objectives)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert objectives.shape == (4000, 5)
        assert mask.tolist() == [True] * 2000 + [False] * 2000
        assert peak < 64 * 1024 * 1024


class TestSorting:
    def test_fronts_partition_population(self):
        rng = np.random.default_rng(0)
        objectives = rng.uniform(size=(30, 3))
        fronts = fast_non_dominated_sort(objectives)
        flattened = sorted(i for front in fronts for i in front)
        assert flattened == list(range(30))

    def test_first_front_matches_mask(self):
        rng = np.random.default_rng(1)
        objectives = rng.uniform(size=(25, 2))
        fronts = fast_non_dominated_sort(objectives)
        mask = non_dominated_mask(objectives)
        assert sorted(fronts[0]) == sorted(np.flatnonzero(mask).tolist())

    def test_later_fronts_are_dominated_by_earlier(self):
        objectives = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        fronts = fast_non_dominated_sort(objectives)
        assert fronts == [[0], [1], [2]]


class TestCrowding:
    def test_extremes_get_infinite_distance(self):
        objectives = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        distances = crowding_distance(objectives)
        assert np.isinf(distances[0])
        assert np.isinf(distances[3])
        assert np.isfinite(distances[1])
        assert np.isfinite(distances[2])

    def test_two_points_are_both_infinite(self):
        distances = crowding_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.all(np.isinf(distances))

    def test_denser_points_have_lower_distance(self):
        # Index 2 sits in a tight cluster (both neighbours very close); index 1
        # has a wide gap on one side, so its crowding distance is larger.
        objectives = np.array(
            [[0.0, 10.0], [4.9, 5.1], [5.0, 5.0], [5.1, 4.9], [10.0, 0.0]]
        )
        distances = crowding_distance(objectives)
        assert distances[2] < distances[1]

    def test_identical_objective_column_handled(self):
        objectives = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        distances = crowding_distance(objectives)
        assert np.all(np.isfinite(distances[1:2]))
