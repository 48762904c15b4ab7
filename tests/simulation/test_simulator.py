"""Tests for the queueing-based NoC performance/energy simulator."""

import numpy as np
import pytest

from repro.noc.mesh import mesh_design
from repro.simulation.simulator import NocSimulator


class TestSimulator:
    def test_result_fields_are_consistent(self, tiny_workload, tiny_designs):
        simulator = NocSimulator(tiny_workload)
        result = simulator.simulate(tiny_designs[0])
        assert result.execution_time_ms > 0
        assert result.average_packet_latency_cycles > 0
        assert result.total_energy_mj == pytest.approx(
            result.network_energy_mj + result.pe_energy_mj
        )
        assert result.edp == pytest.approx(result.total_energy_mj * result.execution_time_ms)
        assert result.peak_temperature > 0

    def test_as_dict_round_trip(self, tiny_workload, tiny_designs):
        result = NocSimulator(tiny_workload).simulate(tiny_designs[0])
        payload = result.as_dict()
        assert payload["edp"] == pytest.approx(result.edp)
        assert set(payload) >= {"execution_time_ms", "total_energy_mj", "edp"}

    def test_latency_increases_with_traffic(self, tiny_workload, tiny_designs):
        design = tiny_designs[0]
        light = NocSimulator(tiny_workload)
        heavy = NocSimulator(tiny_workload.scaled(5.0))
        assert heavy.average_packet_latency(design) > light.average_packet_latency(design)

    def test_execution_time_increases_with_contention(self, tiny_workload, tiny_designs):
        design = tiny_designs[0]
        light = NocSimulator(tiny_workload)
        heavy = NocSimulator(tiny_workload.scaled(5.0))
        assert heavy.execution_time_ms(design) > light.execution_time_ms(design)

    def test_insensitive_platform_ignores_network(self, tiny_workload, tiny_designs):
        design = tiny_designs[0]
        insensitive = NocSimulator(tiny_workload, network_sensitivity=0.0)
        base_cycles = tiny_workload.compute_cycles * 1_000.0
        expected_ms = base_cycles / (tiny_workload.config.cpu_frequency_ghz * 1e9) * 1e3
        assert insensitive.execution_time_ms(design) == pytest.approx(expected_ms)

    def test_different_designs_get_different_edp(self, tiny_workload, tiny_designs):
        simulator = NocSimulator(tiny_workload)
        edps = {round(simulator.simulate(d).edp, 9) for d in tiny_designs}
        assert len(edps) > 1

    def test_invalid_parameters_rejected(self, tiny_workload):
        with pytest.raises(ValueError):
            NocSimulator(tiny_workload, link_capacity_flits_per_kcycle=0.0)
        with pytest.raises(ValueError):
            NocSimulator(tiny_workload, network_sensitivity=1.5)

    def test_mesh_design_simulates_on_small_platform(self, small_workload, small_config):
        simulator = NocSimulator(small_workload)
        result = simulator.simulate(mesh_design(small_config))
        assert result.edp > 0
