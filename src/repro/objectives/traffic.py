"""Traffic objectives: mean and variance of link utilisation (Eqs. 1-2).

The utilisation of link ``k`` is ``u_k = sum_ij f_ij * p_ijk`` where ``p_ijk``
indicates whether the route from PE ``i`` to PE ``j`` traverses link ``k``.
Objective 1 minimises the mean of ``u`` over all links; objective 2 minimises
its variance (reducing hotspots improves GPU throughput).

:func:`link_utilizations` is vectorized: it computes ``u = P.T @ f``, where
``P`` is the path-link incidence (``P[ij, k] = p_ijk``) and ``f`` is the
design's tile-pair frequency vector
(:meth:`~repro.workloads.workload.Workload.pair_frequencies`).  ``P`` is never
built: :meth:`~repro.noc.routing.RoutingTables.link_loads` adds ``f`` up each
source's route tree, one hop level at a time, so every pair ends up holding
the traffic over its last hop, and one ``bincount`` over those links gives
``u``.
"""

from __future__ import annotations

import numpy as np

from repro.noc.design import NocDesign
from repro.noc.routing import RoutingTables
from repro.workloads.workload import Workload


def require_routable(routing: RoutingTables, pair_frequencies: np.ndarray) -> None:
    """Raise ``ValueError`` when any communicating tile pair has no route.

    Mirrors the error the scalar per-pair walk (kept as an oracle in
    ``tests/oracles/objectives.py``) raises when it hits an unreachable pair,
    so the vectorized and reference paths fail identically on disconnected
    networks.
    """
    bad = (pair_frequencies > 0.0) & ~routing.reachable_pairs()
    if np.any(bad):
        pair = int(np.argmax(bad))
        src, dst = divmod(pair, routing.num_tiles)
        raise ValueError(f"no route from tile {src} to tile {dst}: network is disconnected")


def link_utilizations(
    design: NocDesign,
    workload: Workload,
    routing: RoutingTables | None = None,
    frequencies: np.ndarray | None = None,
) -> np.ndarray:
    """Per-link utilisation ``u_k`` for a design under a workload (vectorized).

    Parameters
    ----------
    design:
        The design whose links are being loaded.
    workload:
        Provides the communication frequencies ``f_ij`` between logical PEs.
    routing:
        Optional pre-computed routing tables (avoids recomputation when several
        objectives share them).
    frequencies:
        Optional pre-computed tile-pair frequency vector
        (:meth:`~repro.workloads.workload.Workload.pair_frequencies` of this
        design's placement), shared between objectives by the evaluator.
    """
    if routing is None:
        routing = RoutingTables(design, workload.config.grid)
    if frequencies is None:
        frequencies = workload.pair_frequencies(design.placement_array())
    require_routable(routing, frequencies)
    return routing.link_loads(frequencies)


def traffic_mean(utilization: np.ndarray) -> float:
    """Mean link utilisation (Eq. 1)."""
    if utilization.size == 0:
        return 0.0
    return float(utilization.mean())


def traffic_variance(utilization: np.ndarray) -> float:
    """Population variance of link utilisation (Eq. 2)."""
    if utilization.size == 0:
        return 0.0
    return float(utilization.var())
