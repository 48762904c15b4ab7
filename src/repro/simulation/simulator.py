"""Contention-aware NoC performance and energy simulator.

The paper feeds the final designs back into gem5-GPU/GPGPU-Sim to measure
their energy-delay product (EDP).  That toolchain is unavailable offline, so
this module provides a queueing-theoretic substitute: link loads follow from
the design's deterministic routes and the workload's communication
frequencies, link contention adds M/M/1 waiting time, the application's
execution time scales with the traffic-weighted average packet latency, and
energy combines NoC communication energy with PE energy over the execution
time.  The model rewards exactly the properties the objectives optimise
(short routes, balanced links, low energy), so EDP *orderings* among designs
are preserved even though absolute values are not gem5-accurate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.noc.design import NocDesign
from repro.noc.routing import RoutingTables
from repro.objectives.energy import communication_energy
from repro.objectives.thermal import ThermalModel
from repro.objectives.traffic import require_routable
from repro.simulation.queueing import mm1_waiting_time, normalize_injection
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of simulating one design under one workload."""

    execution_time_ms: float
    average_packet_latency_cycles: float
    network_energy_mj: float
    pe_energy_mj: float
    total_energy_mj: float
    edp: float
    peak_temperature: float

    def as_dict(self) -> dict[str, float]:
        """The result as a plain dictionary (for tables and serialisation)."""
        return {
            "execution_time_ms": self.execution_time_ms,
            "average_packet_latency_cycles": self.average_packet_latency_cycles,
            "network_energy_mj": self.network_energy_mj,
            "pe_energy_mj": self.pe_energy_mj,
            "total_energy_mj": self.total_energy_mj,
            "edp": self.edp,
            "peak_temperature": self.peak_temperature,
        }


class NocSimulator:
    """Queueing-based full-platform simulator producing delay, energy and EDP.

    Parameters
    ----------
    workload:
        Application workload (traffic, power, zero-contention compute time).
    link_capacity_flits_per_kcycle:
        Link bandwidth used to convert traffic frequencies into utilisations.
    network_sensitivity:
        Fraction of application runtime that scales with network latency
        (memory-bound GPU apps are highly sensitive; compute-bound less so).
    """

    def __init__(
        self,
        workload: Workload,
        link_capacity_flits_per_kcycle: float = 200.0,
        network_sensitivity: float = 0.6,
    ):
        if link_capacity_flits_per_kcycle <= 0:
            raise ValueError("link capacity must be > 0")
        if not (0.0 <= network_sensitivity <= 1.0):
            raise ValueError("network_sensitivity must lie in [0, 1]")
        self.workload = workload
        self.config = workload.config
        self.link_capacity = link_capacity_flits_per_kcycle
        self.network_sensitivity = network_sensitivity
        self.thermal_model = ThermalModel(self.config)

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def average_packet_latency(self, design: NocDesign, routing: RoutingTables | None = None) -> float:
        """Traffic-weighted average packet latency in cycles (contention included)."""
        if routing is None:
            routing = RoutingTables(design, self.config.grid)
        frequencies = self.workload.pair_frequencies(design.placement_array())
        return self._packet_latency(routing, frequencies)

    def _packet_latency(self, routing: RoutingTables, frequencies: np.ndarray) -> float:
        """Average packet latency from the route tables and the tile-pair frequencies.

        A packet pays ``stages`` cycles in each of its ``hops + 1`` routers,
        its route's physical length, and the M/M/1 wait of every link on the
        route.  Summed over pairs with weight ``f``, the waits add up to
        ``waiting @ loads``: a link's wait counts once per unit of traffic
        routed over it.  A self pair costs one router's ``stages``.
        """
        stages = self.config.router_stages
        require_routable(routing, frequencies)
        loads = routing.link_loads(frequencies)
        total_traffic = frequencies.sum()
        if total_traffic == 0.0:
            return float(stages)
        waiting = mm1_waiting_time(normalize_injection(loads, self.link_capacity))
        total_latency = (
            stages * (frequencies @ (routing.pair_hops() + 1))
            + frequencies @ routing.pair_lengths()
            + waiting @ loads
        )
        return float(total_latency / total_traffic)

    def execution_time_ms(self, design: NocDesign, routing: RoutingTables | None = None) -> float:
        """End-to-end application execution time in milliseconds."""
        return self._execution_time_ms(self.average_packet_latency(design, routing))

    def _execution_time_ms(self, latency: float) -> float:
        """Execution time for a given average packet latency (cycles)."""
        # Reference latency: a zero-load single-hop access.
        reference = self.config.router_stages * 2 + 1
        slowdown = 1.0 + self.network_sensitivity * max(0.0, latency / reference - 1.0)
        cycles = self.workload.compute_cycles * 1_000.0 * slowdown
        frequency_hz = self.config.cpu_frequency_ghz * 1e9
        return cycles / frequency_hz * 1e3

    def simulate(self, design: NocDesign) -> SimulationResult:
        """Simulate a design and return delay, energy, EDP and peak temperature."""
        routing = RoutingTables(design, self.config.grid)
        frequencies = self.workload.pair_frequencies(design.placement_array())
        latency = self._packet_latency(routing, frequencies)
        execution_time_ms = self._execution_time_ms(latency)
        execution_time_s = execution_time_ms / 1e3

        # Network energy: Eq. 4 energy is per kilo-cycle of traffic; integrate
        # over the application's cycles.
        energy_per_kcycle_pj = communication_energy(
            design, self.workload, routing, frequencies=frequencies
        )
        total_kcycles = self.workload.compute_cycles * 1_000.0 / 1_000.0  # kilo-cycles
        network_energy_mj = energy_per_kcycle_pj * total_kcycles * 1e-9  # pJ -> mJ

        pe_power_w = float(self.workload.power.sum())
        pe_energy_mj = pe_power_w * execution_time_s * 1e3

        total_energy_mj = network_energy_mj + pe_energy_mj
        edp = total_energy_mj * execution_time_ms
        peak_temperature = self.thermal_model.peak_temperature(design, self.workload)
        return SimulationResult(
            execution_time_ms=execution_time_ms,
            average_packet_latency_cycles=latency,
            network_energy_mj=network_energy_mj,
            pe_energy_mj=pe_energy_mj,
            total_energy_mj=total_energy_mj,
            edp=edp,
            peak_temperature=peak_temperature,
        )

    def edp(self, design: NocDesign) -> float:
        """Energy-delay product of a design (mJ * ms)."""
        return self.simulate(design).edp
