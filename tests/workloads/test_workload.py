"""Tests for the Workload container."""

import numpy as np
import pytest

from repro.study.study import PLATFORM_FACTORIES
from repro.workloads.registry import get_workload
from repro.workloads.rodinia import RODINIA_APPLICATIONS
from repro.workloads.workload import Workload


def _traffic(config, value=1.0):
    matrix = np.full((config.num_tiles, config.num_tiles), value, dtype=float)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _power(config, value=2.0):
    return np.full(config.num_tiles, value, dtype=float)


class TestValidation:
    def test_valid_workload(self, tiny_config):
        workload = Workload("X", tiny_config, _traffic(tiny_config), _power(tiny_config))
        assert workload.traffic.shape == (tiny_config.num_tiles, tiny_config.num_tiles)

    def test_wrong_traffic_shape_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            Workload("X", tiny_config, np.zeros((2, 2)), _power(tiny_config))

    def test_wrong_power_shape_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            Workload("X", tiny_config, _traffic(tiny_config), np.zeros(3))

    def test_negative_traffic_rejected(self, tiny_config):
        traffic = _traffic(tiny_config)
        traffic[0, 1] = -1.0
        with pytest.raises(ValueError):
            Workload("X", tiny_config, traffic, _power(tiny_config))

    def test_nonzero_diagonal_rejected(self, tiny_config):
        traffic = _traffic(tiny_config)
        traffic[2, 2] = 1.0
        with pytest.raises(ValueError):
            Workload("X", tiny_config, traffic, _power(tiny_config))

    def test_negative_power_rejected(self, tiny_config):
        power = _power(tiny_config)
        power[0] = -0.5
        with pytest.raises(ValueError):
            Workload("X", tiny_config, _traffic(tiny_config), power)

    def test_nonpositive_compute_cycles_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            Workload("X", tiny_config, _traffic(tiny_config), _power(tiny_config), compute_cycles=0.0)


class TestViews:
    def test_total_traffic(self, tiny_workload):
        assert tiny_workload.total_traffic() == pytest.approx(float(tiny_workload.traffic.sum()))

    def test_traffic_by_class_sums_to_total(self, tiny_workload):
        by_class = tiny_workload.traffic_by_class()
        assert sum(by_class.values()) == pytest.approx(tiny_workload.total_traffic())

    def test_tile_power_follows_placement(self, tiny_config, tiny_workload, tiny_designs):
        design = tiny_designs[0]
        tile_power = tiny_workload.tile_power(design.placement_array())
        for tile in range(tiny_config.num_tiles):
            assert tile_power[tile] == pytest.approx(tiny_workload.power[design.pe_at(tile)])

    def test_scaled_multiplies_traffic_only(self, tiny_workload):
        scaled = tiny_workload.scaled(2.0)
        assert np.allclose(scaled.traffic, 2.0 * tiny_workload.traffic)
        assert np.allclose(scaled.power, tiny_workload.power)
        with pytest.raises(ValueError):
            tiny_workload.scaled(0.0)


@pytest.mark.parametrize("platform", sorted(set(PLATFORM_FACTORIES.values()), key=lambda f: f.__name__))
def test_tile_traffic_gathers_the_fancy_index_bytes(platform):
    """The two ``take`` gathers give exactly ``traffic[np.ix_(p, p)]``, on
    every platform preset and application."""
    config = platform()
    rng = np.random.default_rng(0)
    for application in RODINIA_APPLICATIONS:
        workload = get_workload(application, config, seed=0)
        for placement in (np.arange(config.num_tiles), rng.permutation(config.num_tiles)):
            expected = workload.traffic[np.ix_(placement, placement)]
            gathered = workload.tile_traffic(placement)
            assert gathered.dtype == expected.dtype and gathered.shape == expected.shape
            assert gathered.flags.c_contiguous
            assert gathered.tobytes() == expected.tobytes()
