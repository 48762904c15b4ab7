"""Tests for validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    require,
    require_count,
    require_flag,
    require_positive,
    require_probability,
)


class TestRequire:
    def test_passes_when_true(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ValueError, match="custom message"):
            require(False, "custom message")


class TestRequirePositive:
    def test_accepts_positive(self):
        require_positive(1, "x")
        require_positive(0.5, "x")

    @pytest.mark.parametrize("value", [0, -1, -0.5, None])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError):
            require_positive(value, "x")


class TestRequireProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0, 0, 1, np.float64(0.25)])
    def test_returns_values_in_the_unit_interval(self, value):
        assert require_probability(value, "p") is value

    @pytest.mark.parametrize("value", [-0.1, 1.1, float("nan")])
    def test_rejects_outside_unit_interval(self, value):
        with pytest.raises(ValueError, match="p must be within"):
            require_probability(value, "p")

    @pytest.mark.parametrize("value", [True, False, "0.5", None])
    def test_rejects_bools_strings_and_none(self, value):
        with pytest.raises(TypeError, match="p must be a number"):
            require_probability(value, "p")


class TestRequireCount:
    @pytest.mark.parametrize("value", [0, 7, np.int32(7), np.int64(7), np.uint16(7)])
    def test_returns_a_plain_int(self, value):
        count = require_count(value, "n", 0)
        assert count == value and type(count) is int

    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_bools(self, value):
        with pytest.raises(TypeError, match="n must be an integer"):
            require_count(value, "n", 0)

    @pytest.mark.parametrize("value", [2.0, 2.7, np.float64(3.0), "3", None])
    def test_rejects_non_integers(self, value):
        with pytest.raises(TypeError, match="n must be an integer"):
            require_count(value, "n", 0)

    @pytest.mark.parametrize("value, minimum", [(-1, 0), (0, 1), (4, 5)])
    def test_below_minimum_raises_value_error(self, value, minimum):
        with pytest.raises(ValueError, match=f"n must be >= {minimum}, got {value}"):
            require_count(value, "n", minimum)


class TestRequireFlag:
    @pytest.mark.parametrize("value", [True, False])
    def test_returns_bools(self, value):
        assert require_flag(value, "on") is value

    @pytest.mark.parametrize("value", [0, 1, "false", "no", None, np.bool_(True)])
    def test_rejects_everything_else(self, value):
        with pytest.raises(TypeError, match="on must be true or false"):
            require_flag(value, "on")
