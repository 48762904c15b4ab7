"""Tests for the scalarisation functions (Eqs. 8-9)."""

import numpy as np
import pytest

from repro.moo.scalarization import tchebycheff, weighted_distance


class TestWeightedDistance:
    def test_known_value(self):
        value = weighted_distance([3.0, 5.0], [0.5, 0.5], [1.0, 1.0])
        assert value == pytest.approx(0.5 * 2.0 + 0.5 * 4.0)

    def test_zero_at_reference_point(self):
        assert weighted_distance([1.0, 2.0], [0.3, 0.7], [1.0, 2.0]) == 0.0

    def test_scale_normalises_objectives(self):
        raw = weighted_distance([10.0, 1.0], [0.5, 0.5], [0.0, 0.0])
        scaled = weighted_distance([10.0, 1.0], [0.5, 0.5], [0.0, 0.0], scale=[10.0, 1.0])
        assert raw == pytest.approx(5.5)
        assert scaled == pytest.approx(1.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_distance([1.0], [-0.1], [0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_distance([1.0, 2.0], [1.0], [0.0, 0.0])


class TestTchebycheff:
    def test_known_value(self):
        value = tchebycheff([3.0, 5.0], [0.5, 0.25], [1.0, 1.0])
        assert value == pytest.approx(max(0.5 * 2.0, 0.25 * 4.0))

    def test_zero_weight_replaced_by_epsilon(self):
        value = tchebycheff([2.0, 100.0], [1.0, 0.0], [0.0, 0.0])
        assert value >= 2.0  # first objective dominates, second still counts slightly
        assert value == pytest.approx(2.0, rel=1e-3)

    def test_better_design_scores_lower(self):
        weight = [0.5, 0.5]
        reference = [0.0, 0.0]
        assert tchebycheff([1.0, 1.0], weight, reference) < tchebycheff([2.0, 2.0], weight, reference)

    def test_scale_changes_dominant_objective(self):
        weight = [0.5, 0.5]
        reference = [0.0, 0.0]
        unscaled = tchebycheff([100.0, 1.0], weight, reference)
        scaled = tchebycheff([100.0, 1.0], weight, reference, scale=[100.0, 1.0])
        assert unscaled == pytest.approx(50.0)
        assert scaled == pytest.approx(0.5)

    def test_nonpositive_scale_entries_ignored(self):
        value = tchebycheff([2.0, 2.0], [0.5, 0.5], [0.0, 0.0], scale=[0.0, 2.0])
        assert value == pytest.approx(max(0.5 * 2.0 / 1.0, 0.5 * 2.0 / 2.0))
