"""Memory pin: a materialised 256-tile routing table holds at most 1.5 MiB.

The ``RoutingEngine`` keeps as many tables as fit its byte budget, so one
table's size decides how many a 256-tile search keeps.  Each table here has
had every objective evaluated on it, so all of its lazy pair structures
exist.  That holds for a fresh build and an incremental repair alike.  The
budget is counted in ndarray bytes, not timed: such a table holds 1.47 MiB,
of which the float32 distances are 0.25 MiB and the route-tree levels (two
int32 arrays and one int16 array over the routed pairs) 0.62 MiB.
"""

import numpy as np
import pytest

from repro.noc.constraints import random_design
from repro.noc.moves import MoveGenerator
from repro.noc.platform import PlatformConfig
from repro.noc.routing import RoutingTables
from repro.objectives.energy import communication_energy
from repro.objectives.latency import cpu_llc_latency
from repro.objectives.thermal import ThermalModel
from repro.objectives.traffic import link_utilizations, traffic_mean, traffic_variance
from repro.workloads.registry import get_workload

BIG = PlatformConfig.big_8x8x4()
BUDGET_BYTES = 3 * 2**19


def _held_array_bytes(tables: RoutingTables) -> int:
    """Bytes of every ndarray the table references."""
    return sum(value.nbytes for value in vars(tables).values() if isinstance(value, np.ndarray))


def _objectives(design, workload, tables) -> list[float]:
    utilization = link_utilizations(design, workload, tables)
    thermal = ThermalModel(workload.config)
    return [
        traffic_mean(utilization),
        traffic_variance(utilization),
        cpu_llc_latency(design, workload, tables),
        communication_energy(design, workload, tables),
        thermal.objective(design, workload),
    ]


@pytest.fixture(scope="module")
def evaluated_tables():
    """``(kind, objectives, tables)`` for a fresh and a repaired table."""
    workload = get_workload("BFS", BIG, seed=0)
    rng = np.random.default_rng(4)
    parent = random_design(BIG, rng)
    parent_tables = RoutingTables(parent, BIG.grid)
    _objectives(parent, workload, parent_tables)
    child = None
    while child is None:
        child = MoveGenerator(BIG, workload).rewire_link(parent, rng)

    fresh = RoutingTables(child, BIG.grid)
    repaired = parent_tables.incremental_update(child.links)
    return [
        (kind, _objectives(child, workload, tables), tables)
        for kind, tables in (("fresh", fresh), ("repaired", repaired))
    ]


def test_materialised_tables_fit_the_budget(evaluated_tables):
    for kind, _, tables in evaluated_tables:
        held = _held_array_bytes(tables)
        assert tables.nbytes == held
        assert held <= BUDGET_BYTES, f"{kind} table holds {held / 2**20:.2f} MiB"


def test_edge_lookup_is_not_retained(evaluated_tables):
    """The build's dense edge -> link lookup dies with the build: the only
    tile-by-tile integer array a table keeps is its predecessor matrix."""
    square = (BIG.num_tiles, BIG.num_tiles)
    for kind, _, tables in evaluated_tables:
        assert getattr(tables, "_edge_link", None) is None, kind
        tile_by_tile = [
            name
            for name, value in vars(tables).items()
            if isinstance(value, np.ndarray) and value.shape == square and value.dtype.kind == "i"
        ]
        assert tile_by_tile == ["_predecessors"], kind


def test_predecessors_and_hops_are_narrow(evaluated_tables):
    for _, _, tables in evaluated_tables:
        assert tables._distance.dtype == np.float32
        assert tables._predecessors.dtype == np.int16
        assert tables.pair_hops().dtype == np.int16
        assert tables.pair_lengths().dtype == np.int16
        for name in ("_tree_pairs", "_tree_parents"):
            assert getattr(tables, name).dtype == np.int32, name
        assert tables._tree_links.dtype == np.int16
        assert tables.pair_router_ports().dtype == np.int16


def test_fresh_and_repaired_tables_score_identically(evaluated_tables):
    (_, fresh, _), (_, repaired, _) = evaluated_tables
    assert repaired == fresh
