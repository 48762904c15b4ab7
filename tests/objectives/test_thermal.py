"""Tests for the thermal model (Eqs. 5-7)."""

import numpy as np
import pytest

from repro.noc.constraints import random_design
from repro.noc.platform import PlatformConfig
from repro.objectives.thermal import ThermalModel
from repro.workloads.workload import Workload


def _uniform_workload(config, watts=2.0):
    traffic = np.zeros((config.num_tiles, config.num_tiles))
    traffic[0, 1] = 1.0
    power = np.full(config.num_tiles, watts)
    return Workload("uniform", config, traffic, power)


class TestTemperatures:
    def test_manual_two_layer_stack(self, tiny_config):
        config = tiny_config
        model = ThermalModel(config)
        design = random_design(config, np.random.default_rng(0))
        workload = _uniform_workload(config, watts=2.0)
        temperatures = model.temperatures(design, workload)
        r, rb = config.vertical_resistance, config.base_resistance
        # Layer 0 (closest to sink): T = P*R1 + Rb*P
        expected_layer0 = 2.0 * r + rb * 2.0
        # Layer 1: T = P*R1 + P*(R1+R2) + Rb*(P+P)
        expected_layer1 = 2.0 * r + 2.0 * (2 * r) + rb * 4.0
        assert np.allclose(temperatures[:, 0], expected_layer0)
        assert np.allclose(temperatures[:, 1], expected_layer1)

    def test_upper_layers_run_hotter_under_uniform_power(self, small_config, small_designs):
        model = ThermalModel(small_config)
        workload = _uniform_workload(small_config)
        temperatures = model.temperatures(small_designs[0], workload)
        per_layer = temperatures.mean(axis=0)
        assert np.all(np.diff(per_layer) > 0)

    def test_uniform_power_has_zero_spread(self, small_config, small_designs):
        model = ThermalModel(small_config)
        workload = _uniform_workload(small_config)
        temperatures = model.temperatures(small_designs[0], workload)
        assert np.allclose(model.layer_spread(temperatures), 0.0)

    def test_objective_zero_for_uniform_power(self, small_config, small_designs):
        # Eq. 7 multiplies the peak by the maximum same-layer spread, which is
        # zero when every column carries identical power.
        workload = _uniform_workload(small_config)
        assert ThermalModel(small_config).objective(small_designs[0], workload) == pytest.approx(0.0)

    def test_peak_temperature_positive(self, small_config, small_workload, small_designs):
        model = ThermalModel(small_config)
        assert model.peak_temperature(small_designs[0], small_workload) > 0

    def test_objective_depends_on_placement(self, small_config, small_workload, small_designs):
        model = ThermalModel(small_config)
        values = {round(model.objective(d, small_workload), 6) for d in small_designs}
        assert len(values) > 1

    def test_moving_hot_pe_away_from_sink_raises_peak(self, tiny_config):
        config = tiny_config
        traffic = np.zeros((config.num_tiles, config.num_tiles))
        traffic[0, 1] = 1.0
        power = np.ones(config.num_tiles)
        power[0] = 10.0  # PE 0 is the hot one
        workload = Workload("hot", config, traffic, power)
        base = random_design(config, np.random.default_rng(1))
        hot_tile = base.tile_of(0)
        grid = config.grid
        model = ThermalModel(config)
        if grid.coord(hot_tile).z == 0:
            # Swap the hot PE with whatever sits directly above it.
            above = grid.vertical_neighbors(hot_tile)[0]
            placement = list(base.placement)
            placement[hot_tile], placement[above] = placement[above], placement[hot_tile]
            moved = base.__class__(placement=tuple(placement), links=base.links)
            assert model.peak_temperature(moved, workload) > model.peak_temperature(base, workload)


class TestCustomResistances:
    def test_wrong_resistance_count_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            ThermalModel(tiny_config, layer_resistances=(0.5,))

    def test_nonpositive_resistance_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            ThermalModel(tiny_config, layer_resistances=(0.5, 0.0))

    def test_custom_resistances_used(self, tiny_config, tiny_designs):
        workload = _uniform_workload(tiny_config)
        low = ThermalModel(tiny_config, layer_resistances=(0.1, 0.1))
        high = ThermalModel(tiny_config, layer_resistances=(2.0, 2.0))
        assert high.peak_temperature(tiny_designs[0], workload) > low.peak_temperature(
            tiny_designs[0], workload
        )
