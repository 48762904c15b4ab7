"""The per-pair scalar objective loops the vectorized engine replaced.

``repro.objectives`` computes link utilisation by summing the tile-pair
frequencies up the route trees of ``RoutingTables``, CPU-LLC latency and
energy as dot products of the tables' per-pair hops, lengths and port sums
with those frequencies, and the thermal field as prefix sums along the
layer axis.  The original loops live on here, verbatim apart from taking
the thermal model or evaluator as their first argument and walking routes
with :mod:`tests.oracles.routing`, as oracles:
``tests/objectives/test_batch_equivalence.py`` checks every vectorized
function against its twin, and the batch-evaluation benchmarks in
``benchmarks/bench_components.py`` time :func:`evaluate_reference` as
their scalar baseline.
"""

from __future__ import annotations

import numpy as np

from repro.noc.design import NocDesign
from repro.noc.platform import PlatformConfig
from repro.noc.routing import RoutingTables
from repro.objectives.evaluator import ObjectiveEvaluator
from repro.objectives.thermal import ThermalModel
from repro.objectives.traffic import traffic_mean, traffic_variance
from repro.workloads.workload import Workload
from tests.oracles.routing import route_links, route_tiles


def communicating_pairs(workload: Workload) -> list[tuple[int, int, float]]:
    """All ``(src_pe, dst_pe, f_ij)`` tuples with non-zero traffic, in PE order."""
    src, dst = np.nonzero(workload.traffic)
    return [(int(i), int(j), float(workload.traffic[i, j])) for i, j in zip(src, dst)]


def link_utilizations_reference(
    design: NocDesign, workload: Workload, routing: RoutingTables | None = None
) -> np.ndarray:
    """Scalar per-pair reference implementation of :func:`link_utilizations`."""
    if routing is None:
        routing = RoutingTables(design, workload.config.grid)
    tile_of_pe = design.tile_of_pe()
    utilization = np.zeros(design.num_links, dtype=np.float64)
    for src_pe, dst_pe, frequency in communicating_pairs(workload):
        src_tile = int(tile_of_pe[src_pe])
        dst_tile = int(tile_of_pe[dst_pe])
        if src_tile == dst_tile:
            continue
        for link_idx in route_links(routing, src_tile, dst_tile):
            utilization[link_idx] += frequency
    return utilization


def cpu_llc_latency_reference(
    design: NocDesign,
    workload: Workload,
    routing: RoutingTables | None = None,
) -> float:
    """Scalar per-pair reference implementation of :func:`cpu_llc_latency`."""
    config: PlatformConfig = workload.config
    if routing is None:
        routing = RoutingTables(design, config.grid)
    cpu_ids = config.cpu_ids
    llc_ids = config.llc_ids
    if len(cpu_ids) == 0 or len(llc_ids) == 0:
        return 0.0
    tile_of_pe = design.tile_of_pe()
    stages = config.router_stages
    total = 0.0
    for cpu in cpu_ids:
        cpu_tile = int(tile_of_pe[cpu])
        for llc in llc_ids:
            llc_tile = int(tile_of_pe[llc])
            frequency = float(workload.traffic[cpu, llc] + workload.traffic[llc, cpu])
            if frequency == 0.0:
                continue
            links = route_links(routing, cpu_tile, llc_tile)
            link_delay = float(routing.link_lengths[links].sum()) if links else 0.0
            total += (stages * len(links) + link_delay) * frequency
    return total / (len(cpu_ids) * len(llc_ids))


def communication_energy_reference(
    design: NocDesign,
    workload: Workload,
    routing: RoutingTables | None = None,
) -> float:
    """Scalar per-pair reference implementation of :func:`communication_energy`."""
    config: PlatformConfig = workload.config
    if routing is None:
        routing = RoutingTables(design, config.grid)
    tile_of_pe = design.tile_of_pe()
    ports = design.degrees().astype(np.float64) + 1.0
    link_lengths = design.link_lengths(config.grid)
    e_link = config.link_energy_per_flit
    e_router = config.router_energy_per_port

    total = 0.0
    for src_pe, dst_pe, frequency in communicating_pairs(workload):
        src_tile = int(tile_of_pe[src_pe])
        dst_tile = int(tile_of_pe[dst_pe])
        if src_tile == dst_tile:
            # Same-tile communication traverses only the local router.
            total += frequency * e_router * ports[src_tile]
            continue
        links = route_links(routing, src_tile, dst_tile)
        tiles = route_tiles(routing, src_tile, dst_tile)
        link_energy = e_link * float(link_lengths[links].sum())
        router_energy = e_router * float(ports[tiles].sum())
        total += frequency * (link_energy + router_energy)
    return total


def column_powers_reference(
    model: ThermalModel, design: NocDesign, workload: Workload
) -> np.ndarray:
    """Scalar per-tile reference implementation of :meth:`ThermalModel.column_powers`."""
    config = model.config
    grid = config.grid
    tile_power = workload.tile_power(design.placement_array())
    powers = np.zeros((grid.num_columns, config.layers), dtype=np.float64)
    for tile_id in range(config.num_tiles):
        coord = grid.coord(tile_id)
        powers[coord.y * grid.n + coord.x, coord.z] = tile_power[tile_id]
    return powers


def temperatures_reference(
    model: ThermalModel, design: NocDesign, workload: Workload
) -> np.ndarray:
    """Per-layer-loop reference implementation of :meth:`ThermalModel.temperatures`."""
    powers = column_powers_reference(model, design, workload)
    cumulative_resistance = np.cumsum(model.resistances)
    num_columns, layers = powers.shape
    temperatures = np.zeros_like(powers)
    for k in range(layers):
        # Eq. 5: heat generated at or below layer k flows through the
        # resistances between its source layer and the sink.
        contributions = powers[:, : k + 1] * cumulative_resistance[: k + 1]
        base = model.config.base_resistance * powers[:, : k + 1].sum(axis=1)
        temperatures[:, k] = contributions.sum(axis=1) + base
    return temperatures


def objective_reference(model: ThermalModel, design: NocDesign, workload: Workload) -> float:
    """Eq. 7 computed through the scalar reference temperature field."""
    temperatures = temperatures_reference(model, design, workload)
    peak = float(temperatures.max())
    spread = float(model.layer_spread(temperatures).max())
    return peak * spread


def evaluate_reference(evaluator: ObjectiveEvaluator, design: NocDesign) -> np.ndarray:
    """Objective vector computed by the scalar per-pair reference path.

    Bypasses the cache and the vectorized engine; used by equivalence
    tests and as the baseline of the batch-evaluation benchmark.  Mirrors
    the scenario transforms of :meth:`ObjectiveEvaluator._compute` so faulted
    evaluation is pinned by the same scalar/vectorized equivalence contract.
    """
    design = evaluator._scenario_design(design)
    routing = RoutingTables(design, evaluator.config.grid)
    needed = set(evaluator.scenario.objectives)
    values: dict[str, float] = {}
    if needed & {"traffic_mean", "traffic_variance"}:
        utilization = link_utilizations_reference(design, evaluator.workload, routing)
        utilization = evaluator._scenario_utilization(design, utilization)
        values["traffic_mean"] = traffic_mean(utilization)
        values["traffic_variance"] = traffic_variance(utilization)
    if "cpu_llc_latency" in needed:
        values["cpu_llc_latency"] = cpu_llc_latency_reference(design, evaluator.workload, routing)
    if "energy" in needed:
        values["energy"] = communication_energy_reference(design, evaluator.workload, routing)
    if "thermal" in needed:
        values["thermal"] = objective_reference(evaluator.thermal_model, design, evaluator.workload)
    return np.array([values[name] for name in evaluator.scenario.objectives], dtype=np.float64)
