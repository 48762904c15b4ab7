"""The per-pair packet-latency loop the table-based simulator replaced.

``NocSimulator.average_packet_latency`` used to walk the route of every
communicating PE pair and add up its router stages, link lengths and link
waits one pair at a time.  It now takes three dot products over the routing
tables' per-pair arrays and the link loads.  The loop lives on here as
:func:`average_packet_latency_reference`, and :func:`simulate_reference` is
the retired ``simulate()`` on top of it, so
``tests/simulation/test_simulator_equivalence.py`` can pin the simulator's
latency and every :class:`~repro.simulation.SimulationResult` field to the
old code.
"""

from __future__ import annotations

from repro.noc.design import NocDesign
from repro.noc.routing import RoutingTables
from repro.objectives.energy import communication_energy
from repro.objectives.traffic import link_utilizations
from repro.simulation.queueing import mm1_waiting_time, normalize_injection
from repro.simulation.simulator import NocSimulator, SimulationResult
from tests.oracles.objectives import communicating_pairs
from tests.oracles.routing import route_links


def average_packet_latency_reference(
    simulator: NocSimulator, design: NocDesign, routing: RoutingTables | None = None
) -> float:
    """Traffic-weighted average packet latency, summed pair by pair in PE order."""
    if routing is None:
        routing = RoutingTables(design, simulator.config.grid)
    loads = link_utilizations(design, simulator.workload, routing)
    rho = normalize_injection(loads, simulator.link_capacity)
    waiting = mm1_waiting_time(rho)
    tile_of_pe = design.tile_of_pe()
    stages = simulator.config.router_stages

    total_latency = 0.0
    total_traffic = 0.0
    for src_pe, dst_pe, frequency in communicating_pairs(simulator.workload):
        src_tile = int(tile_of_pe[src_pe])
        dst_tile = int(tile_of_pe[dst_pe])
        if src_tile == dst_tile:
            latency = float(stages)
        else:
            links = route_links(routing, src_tile, dst_tile)
            hops = len(links)
            link_delay = float(routing.link_lengths[links].sum())
            queue_delay = float(waiting[links].sum())
            latency = stages * (hops + 1) + link_delay + queue_delay
        total_latency += latency * frequency
        total_traffic += frequency
    if total_traffic == 0.0:
        return float(stages)
    return total_latency / total_traffic


def simulate_reference(simulator: NocSimulator, design: NocDesign) -> SimulationResult:
    """The retired ``NocSimulator.simulate`` over the per-pair latency loop."""
    config = simulator.config
    workload = simulator.workload
    routing = RoutingTables(design, config.grid)
    latency = average_packet_latency_reference(simulator, design, routing)
    reference = config.router_stages * 2 + 1
    slowdown = 1.0 + simulator.network_sensitivity * max(0.0, latency / reference - 1.0)
    cycles = workload.compute_cycles * 1_000.0 * slowdown
    execution_time_ms = cycles / (config.cpu_frequency_ghz * 1e9) * 1e3
    execution_time_s = execution_time_ms / 1e3

    energy_per_kcycle_pj = communication_energy(design, workload, routing)
    total_kcycles = workload.compute_cycles * 1_000.0 / 1_000.0
    network_energy_mj = energy_per_kcycle_pj * total_kcycles * 1e-9

    pe_power_w = float(workload.power.sum())
    pe_energy_mj = pe_power_w * execution_time_s * 1e3

    total_energy_mj = network_energy_mj + pe_energy_mj
    return SimulationResult(
        execution_time_ms=execution_time_ms,
        average_packet_latency_cycles=latency,
        network_energy_mj=network_energy_mj,
        pe_energy_mj=pe_energy_mj,
        total_energy_mj=total_energy_mj,
        edp=total_energy_mj * execution_time_ms,
        peak_temperature=simulator.thermal_model.peak_temperature(design, workload),
    )
