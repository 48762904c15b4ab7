"""Tests for the traffic mean/variance objectives (Eqs. 1-2)."""

import numpy as np
import pytest

from repro.noc.design import NocDesign
from repro.noc.mesh import mesh_design
from repro.noc.routing import RoutingTables
from repro.objectives.traffic import link_utilizations, traffic_mean, traffic_variance
from repro.workloads.workload import Workload
from tests.oracles.objectives import communicating_pairs
from tests.oracles.routing import route_links


def _single_pair_workload(config, src_pe, dst_pe, rate):
    traffic = np.zeros((config.num_tiles, config.num_tiles))
    traffic[src_pe, dst_pe] = rate
    power = np.ones(config.num_tiles)
    return Workload("single", config, traffic, power)


class TestLinkUtilization:
    def test_single_flow_loads_exactly_its_path(self, tiny_config):
        design = mesh_design(tiny_config)
        routing = RoutingTables(design, tiny_config.grid)
        src_pe, dst_pe = 0, 5
        workload = _single_pair_workload(tiny_config, src_pe, dst_pe, 3.0)
        tile_of_pe = design.tile_of_pe()
        path = route_links(routing, int(tile_of_pe[src_pe]), int(tile_of_pe[dst_pe]))
        utilization = link_utilizations(design, workload, routing)
        for link_idx in range(design.num_links):
            expected = 3.0 if link_idx in path else 0.0
            assert utilization[link_idx] == pytest.approx(expected)

    def test_utilization_scales_linearly_with_traffic(self, tiny_config, tiny_workload, tiny_designs):
        design = tiny_designs[0]
        base = link_utilizations(design, tiny_workload)
        doubled = link_utilizations(design, tiny_workload.scaled(2.0))
        assert np.allclose(doubled, 2.0 * base)

    def test_total_utilization_at_least_total_traffic(self, tiny_config, tiny_workload, tiny_designs):
        # Every flow between distinct tiles crosses at least one link.
        design = tiny_designs[0]
        utilization = link_utilizations(design, tiny_workload)
        same_tile = sum(
            f for s, d, f in communicating_pairs(tiny_workload)
            if design.tile_of(s) == design.tile_of(d)
        )
        assert utilization.sum() >= tiny_workload.total_traffic() - same_tile - 1e-9

    def test_shared_routing_gives_same_result(self, tiny_config, tiny_workload, tiny_designs):
        design = tiny_designs[0]
        routing = RoutingTables(design, tiny_config.grid)
        assert np.allclose(
            link_utilizations(design, tiny_workload, routing),
            link_utilizations(design, tiny_workload),
        )


class TestMeanVariance:
    def test_mean_and_variance_formulas(self):
        utilization = np.array([1.0, 2.0, 3.0, 6.0])
        assert traffic_mean(utilization) == pytest.approx(3.0)
        assert traffic_variance(utilization) == pytest.approx(np.var(utilization))

    def test_uniform_utilization_has_zero_variance(self):
        utilization = np.full(10, 4.2)
        assert traffic_variance(utilization) == pytest.approx(0.0)

    def test_empty_utilization(self):
        empty = np.array([])
        assert traffic_mean(empty) == 0.0
        assert traffic_variance(empty) == 0.0
