"""Tests for the NoC energy objective (Eq. 4)."""

import numpy as np
import pytest

from repro.noc.mesh import mesh_design
from repro.noc.routing import RoutingTables
from repro.objectives.energy import communication_energy
from repro.workloads.workload import Workload
from tests.oracles.routing import route_links, route_tiles


def _single_flow(config, src_pe, dst_pe, rate=1.0):
    traffic = np.zeros((config.num_tiles, config.num_tiles))
    traffic[src_pe, dst_pe] = rate
    return Workload("single", config, traffic, np.ones(config.num_tiles))


class TestEnergy:
    def test_manual_single_flow_energy(self, tiny_config):
        config = tiny_config
        design = mesh_design(config)
        routing = RoutingTables(design, config.grid)
        workload = _single_flow(config, 0, 5, rate=2.0)
        src_tile, dst_tile = design.tile_of(0), design.tile_of(5)
        links = route_links(routing, src_tile, dst_tile)
        tiles = route_tiles(routing, src_tile, dst_tile)
        ports = design.degrees() + 1
        expected = 2.0 * (
            config.link_energy_per_flit * float(routing.link_lengths[links].sum())
            + config.router_energy_per_port * float(ports[tiles].sum())
        )
        assert communication_energy(design, workload, routing) == pytest.approx(expected)

    def test_energy_scales_with_traffic(self, tiny_config, tiny_workload, tiny_designs):
        design = tiny_designs[0]
        base = communication_energy(design, tiny_workload)
        doubled = communication_energy(design, tiny_workload.scaled(2.0))
        assert doubled == pytest.approx(2.0 * base)

    def test_energy_positive_for_real_workloads(self, tiny_workload, tiny_designs):
        for design in tiny_designs:
            assert communication_energy(design, tiny_workload) > 0

    def test_longer_routes_cost_more_energy(self, tiny_config):
        config = tiny_config
        design = mesh_design(config)
        # Choose PEs on adjacent vs opposite tiles by picking their host tiles.
        pe_near_a = design.pe_at(0)
        pe_near_b = design.pe_at(1)
        pe_far_b = design.pe_at(7)
        near = communication_energy(design, _single_flow(config, pe_near_a, pe_near_b))
        far = communication_energy(design, _single_flow(config, pe_near_a, pe_far_b))
        assert far > near

    def test_same_tile_flow_costs_one_router(self, tiny_config):
        config = tiny_config
        design = mesh_design(config)
        pe = design.pe_at(3)
        workload = _single_flow(config, pe, pe, rate=0.0)  # zero diagonal enforced; use explicit check
        # Instead verify the branch through a crafted two-PE same-tile case is
        # unreachable: any two distinct PEs occupy distinct tiles, so just
        # assert the energy of an empty workload is zero.
        empty = Workload("empty", config, np.zeros((config.num_tiles, config.num_tiles)), np.ones(config.num_tiles))
        assert communication_energy(design, empty) == 0.0
