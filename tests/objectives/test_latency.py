"""Tests for the CPU-LLC latency objective (Eq. 3)."""

import numpy as np
import pytest

from repro.noc.mesh import mesh_design
from repro.noc.routing import RoutingTables
from repro.objectives.latency import cpu_llc_latency
from repro.workloads.workload import Workload
from tests.oracles.routing import route_links


def _cpu_llc_only_workload(config, rate=2.0):
    traffic = np.zeros((config.num_tiles, config.num_tiles))
    for cpu in config.cpu_ids:
        for llc in config.llc_ids:
            traffic[cpu, llc] = rate
    return Workload("cpu-llc", config, traffic, np.ones(config.num_tiles))


class TestLatency:
    def test_manual_computation_single_pair(self, tiny_config):
        design = mesh_design(tiny_config)
        routing = RoutingTables(design, tiny_config.grid)
        config = tiny_config
        traffic = np.zeros((config.num_tiles, config.num_tiles))
        cpu, llc = int(config.cpu_ids[0]), int(config.llc_ids[0])
        traffic[cpu, llc] = 4.0
        workload = Workload("one", config, traffic, np.ones(config.num_tiles))
        cpu_tile, llc_tile = design.tile_of(cpu), design.tile_of(llc)
        links = route_links(routing, cpu_tile, llc_tile)
        hops = len(links)
        length = float(routing.link_lengths[links].sum())
        expected = (config.router_stages * hops + length) * 4.0 / (config.num_cpus * config.num_llcs)
        assert cpu_llc_latency(design, workload, routing) == pytest.approx(expected)

    def test_latency_counts_both_directions(self, tiny_config):
        design = mesh_design(tiny_config)
        config = tiny_config
        cpu, llc = int(config.cpu_ids[0]), int(config.llc_ids[0])
        forward = np.zeros((config.num_tiles, config.num_tiles))
        forward[cpu, llc] = 4.0
        backward = np.zeros((config.num_tiles, config.num_tiles))
        backward[llc, cpu] = 4.0
        wl_forward = Workload("f", config, forward, np.ones(config.num_tiles))
        wl_backward = Workload("b", config, backward, np.ones(config.num_tiles))
        assert cpu_llc_latency(design, wl_forward) == pytest.approx(
            cpu_llc_latency(design, wl_backward)
        )

    def test_latency_ignores_gpu_traffic(self, tiny_config):
        design = mesh_design(tiny_config)
        config = tiny_config
        traffic = np.zeros((config.num_tiles, config.num_tiles))
        gpu = int(config.gpu_ids[0])
        llc = int(config.llc_ids[0])
        traffic[gpu, llc] = 50.0
        workload = Workload("gpu-only", config, traffic, np.ones(config.num_tiles))
        assert cpu_llc_latency(design, workload) == pytest.approx(0.0)

    def test_placing_cpus_near_llcs_reduces_latency(self, tiny_config, tiny_workload, tiny_designs):
        # Compare two placements of the same links: original vs one where a CPU
        # was moved onto a tile adjacent to the busiest LLC.  We simply check
        # the objective varies across designs (it is placement sensitive).
        values = {round(cpu_llc_latency(d, tiny_workload), 6) for d in tiny_designs}
        assert len(values) > 1

    def test_latency_scales_with_traffic(self, tiny_config, tiny_designs):
        design = tiny_designs[0]
        workload = _cpu_llc_only_workload(tiny_config, rate=2.0)
        doubled = _cpu_llc_only_workload(tiny_config, rate=4.0)
        assert cpu_llc_latency(design, doubled) == pytest.approx(
            2.0 * cpu_llc_latency(design, workload)
        )
