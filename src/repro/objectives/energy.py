"""NoC communication energy objective (Eq. 4).

Energy is the traffic-weighted sum of link traversal energy (proportional to
the physical link length ``d_k`` times the per-flit link energy ``E_link``)
and router traversal energy (per-port energy ``E_r`` times the port count
``P_k`` of every router on the route).

:func:`communication_energy` is vectorized: per-pair link energy comes from
the precomputed route-length vector and per-pair router energy from the
route's summed router port counts
(:meth:`~repro.noc.routing.RoutingTables.pair_router_ports`), both contracted
with the tile-pair frequency vector in one dot product.  Same-tile pairs cost
one local-router traversal, which the self-pair port sums encode naturally.
"""

from __future__ import annotations

import numpy as np

from repro.noc.design import NocDesign
from repro.noc.platform import PlatformConfig
from repro.noc.routing import RoutingTables
from repro.objectives.traffic import require_routable
from repro.workloads.workload import Workload


def communication_energy(
    design: NocDesign,
    workload: Workload,
    routing: RoutingTables | None = None,
    frequencies: np.ndarray | None = None,
) -> float:
    """Total NoC communication energy (Eq. 4), in picojoules per kilo-cycle.

    ``frequencies`` optionally supplies the pre-computed tile-pair frequency
    vector so the evaluator can share it with the traffic objective.
    """
    config: PlatformConfig = workload.config
    if routing is None:
        routing = RoutingTables(design, config.grid)
    if frequencies is None:
        frequencies = workload.pair_frequencies(design.placement_array())
    require_routable(routing, frequencies)
    link_energy = config.link_energy_per_flit * routing.pair_lengths()
    # Summed port counts (attached links plus the local PE injection port)
    # of every router on each pair's route.
    router_energy = config.router_energy_per_port * routing.pair_router_ports()
    return float(frequencies @ (link_energy + router_energy))

