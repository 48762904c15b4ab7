"""CPU-LLC latency objective (Eq. 3).

CPUs are latency sensitive; the objective models the average CPU-to-LLC
access latency as ``(r * h_ij + d_ij) * f_ij`` summed over every CPU/LLC pair
and normalised by the number of pairs, where ``r`` is the router pipeline
depth, ``h_ij`` the hop count and ``d_ij`` the total physical link delay of
the route.

:func:`cpu_llc_latency` is vectorized: it gathers the per-pair hop and length
vectors of :class:`~repro.noc.routing.RoutingTables` at the CPU-tile x
LLC-tile index grid and contracts them with the symmetrised CPU/LLC traffic
sub-matrix in one expression.
"""

from __future__ import annotations

import numpy as np

from repro.noc.design import NocDesign
from repro.noc.platform import PlatformConfig
from repro.noc.routing import RoutingTables
from repro.workloads.workload import Workload


def cpu_llc_latency(
    design: NocDesign,
    workload: Workload,
    routing: RoutingTables | None = None,
) -> float:
    """Average traffic-weighted CPU-LLC latency (Eq. 3), vectorized."""
    config: PlatformConfig = workload.config
    if routing is None:
        routing = RoutingTables(design, config.grid)
    cpu_ids = np.asarray(config.cpu_ids, dtype=np.int64)
    llc_ids = np.asarray(config.llc_ids, dtype=np.int64)
    if len(cpu_ids) == 0 or len(llc_ids) == 0:
        return 0.0
    tile_of_pe = design.tile_of_pe()
    frequencies = (
        workload.traffic[np.ix_(cpu_ids, llc_ids)] + workload.traffic[np.ix_(llc_ids, cpu_ids)].T
    )
    pair_idx = tile_of_pe[cpu_ids][:, None] * routing.num_tiles + tile_of_pe[llc_ids][None, :]
    bad = (frequencies > 0.0) & ~routing.reachable_pairs()[pair_idx]
    if np.any(bad):
        cpu_i, llc_j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        src, dst = divmod(int(pair_idx[cpu_i, llc_j]), routing.num_tiles)
        raise ValueError(f"no route from tile {src} to tile {dst}: network is disconnected")
    hops = routing.pair_hops()[pair_idx].astype(np.int64)  # int16 would wrap
    latencies = config.router_stages * hops + routing.pair_lengths()[pair_idx]
    total = float((latencies * frequencies).sum())
    return total / (len(cpu_ids) * len(llc_ids))

