"""The table-based simulator against the retired per-pair latency loop.

``NocSimulator`` scores a design's packet latency as three dot products over
the routing tables' per-pair hops and lengths and the link loads
(``waiting @ loads`` is the queueing term).  ``tests/oracles/simulation.py``
keeps the loop it replaced, which walks every communicating PE pair's route,
and the ``simulate()`` built on it.  The two sum in different orders, so
they agree to ``rtol=1e-12`` rather than bit for bit; the network energy and
the peak temperature do not depend on the latency and stay exact.
"""

import numpy as np
import pytest

from repro.noc.constraints import random_design
from repro.noc.design import NocDesign
from repro.noc.mesh import mesh_design
from repro.noc.platform import PlatformConfig
from repro.noc.routing import RoutingTables
from repro.simulation.simulator import NocSimulator
from repro.workloads.registry import get_workload
from repro.workloads.workload import Workload
from tests.oracles.simulation import average_packet_latency_reference, simulate_reference

RTOL = 1e-12
PRESETS = [
    PlatformConfig.small_3x3x3(),
    PlatformConfig.paper_4x4x4(),
    PlatformConfig.big_8x8x4(),
]
APPLICATIONS = ("BFS", "HOT")
DESIGN_SEEDS = range(4)


@pytest.mark.parametrize("application", APPLICATIONS)
@pytest.mark.parametrize("platform", PRESETS, ids=lambda platform: platform.name)
def test_simulate_matches_the_per_pair_oracle(platform, application):
    simulator = NocSimulator(get_workload(application, platform, seed=0))
    for seed in DESIGN_SEEDS:
        design = random_design(platform, seed)
        expected = simulate_reference(simulator, design)
        latency = simulator.average_packet_latency(design, RoutingTables(design, platform.grid))
        assert latency == pytest.approx(expected.average_packet_latency_cycles, rel=RTOL, abs=0)
        result = simulator.simulate(design).as_dict()
        for name, value in expected.as_dict().items():
            assert result[name] == pytest.approx(value, rel=RTOL, abs=0), name
        assert result["network_energy_mj"] == expected.network_energy_mj
        assert result["peak_temperature"] == expected.peak_temperature


def test_zero_traffic_costs_one_router(small_config):
    workload = Workload(
        "silent",
        small_config,
        np.zeros((small_config.num_tiles, small_config.num_tiles)),
        np.ones(small_config.num_tiles),
    )
    simulator = NocSimulator(workload)
    design = random_design(small_config, 0)
    stages = float(small_config.router_stages)
    assert simulator.average_packet_latency(design) == stages
    assert average_packet_latency_reference(simulator, design) == stages
    assert simulator.simulate(design).average_packet_latency_cycles == stages


def test_disconnected_design_raises_the_oracle_error(small_config, small_workload):
    design = mesh_design(small_config)
    isolated = small_config.num_tiles - 1
    links = tuple(link for link in design.links if isolated not in link.endpoints())
    broken = NocDesign(placement=design.placement, links=links)
    simulator = NocSimulator(small_workload)
    with pytest.raises(ValueError) as oracle:
        average_packet_latency_reference(simulator, broken)
    message = str(oracle.value)
    assert message.endswith(": network is disconnected")
    for call in (simulator.average_packet_latency, simulator.simulate):
        with pytest.raises(ValueError) as error:
            call(broken)
        assert str(error.value) == message


def test_simulate_sums_the_link_loads_once(paper_config, monkeypatch):
    calls = []
    link_loads = RoutingTables.link_loads

    def spy(self, pair_weights):
        calls.append(pair_weights)
        return link_loads(self, pair_weights)

    monkeypatch.setattr(RoutingTables, "link_loads", spy)
    simulator = NocSimulator(get_workload("BFS", paper_config, seed=0))
    simulator.simulate(random_design(paper_config, 0))
    assert len(calls) == 1
