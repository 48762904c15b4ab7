"""Property-based tests (hypothesis): the RoutingEngine is route-exact.

The central claim of the routing cache: for *any* sequence of moves, the
tables the engine serves (cache hits, incremental repairs and fresh builds
alike) are identical to a fresh all-pairs build — same paths, same
hop counts, same route-tree levels and link loads, and the same disconnection
errors.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.noc.constraints import random_design
from repro.noc.design import NocDesign
from repro.noc.links import Link
from repro.noc.mesh import mesh_design
from repro.noc.moves import MoveGenerator
from repro.noc.platform import PlatformConfig
from repro.noc.routing import RoutingTables
from repro.noc.routing_engine import RoutingEngine
from tests.oracles.routing import route_links, route_tiles, router_ports, tree_link_loads

TINY = PlatformConfig.tiny_2x2x2()
SMALL = PlatformConfig.small_3x3x3()
TINY_MOVES = MoveGenerator(TINY)
SMALL_MOVES = MoveGenerator(SMALL)

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_engine_matches_fresh(engine_tables: RoutingTables, fresh: RoutingTables) -> None:
    np.testing.assert_array_equal(engine_tables._predecessors, fresh._predecessors)
    weights = np.random.default_rng(0).random(fresh.num_tiles**2)
    loads = engine_tables.link_loads(weights)
    assert loads.tobytes() == fresh.link_loads(weights).tobytes()
    assert loads.tobytes() == tree_link_loads(engine_tables, weights).tobytes()
    for attr in ("_tree_pairs", "_tree_parents", "_tree_links", "_level_starts"):
        np.testing.assert_array_equal(getattr(engine_tables, attr), getattr(fresh, attr))
    np.testing.assert_array_equal(engine_tables.pair_router_ports(), fresh.pair_router_ports())
    np.testing.assert_array_equal(engine_tables.pair_router_ports(), router_ports(engine_tables))
    np.testing.assert_array_equal(engine_tables.pair_hops(), fresh.pair_hops())
    np.testing.assert_array_equal(engine_tables.pair_lengths(), fresh.pair_lengths())
    np.testing.assert_array_equal(engine_tables.reachable_pairs(), fresh.reachable_pairs())


@given(seed=st.integers(min_value=0, max_value=10_000), steps=st.integers(min_value=1, max_value=8))
@SETTINGS
def test_random_move_sequences_yield_fresh_dijkstra_routes(seed, steps):
    """Chained random moves: every engine answer equals a fresh build."""
    rng = np.random.default_rng(seed)
    engine = RoutingEngine(TINY.grid)
    design = random_design(TINY, rng)
    engine.tables(design)
    for _ in range(steps):
        design = TINY_MOVES.random_neighbor(design, rng)
        assert_engine_matches_fresh(engine.tables(design), RoutingTables(design, TINY.grid))


@given(seed=st.integers(min_value=0, max_value=5_000), steps=st.integers(min_value=1, max_value=5))
@SETTINGS
def test_move_sequences_on_small_platform(seed, steps):
    """Same exactness on the 27-tile platform (longer routes, more ties)."""
    rng = np.random.default_rng(seed)
    engine = RoutingEngine(SMALL.grid)
    design = random_design(SMALL, rng)
    engine.tables(design)
    for _ in range(steps):
        design = SMALL_MOVES.random_neighbor(design, rng)
        assert_engine_matches_fresh(engine.tables(design), RoutingTables(design, SMALL.grid))


@given(seed=st.integers(min_value=0, max_value=10_000))
@SETTINGS
def test_repaired_tables_raise_identical_disconnection_errors(seed):
    """Isolating a tile via an incremental repair reports the same error."""
    rng = np.random.default_rng(seed)
    engine = RoutingEngine(SMALL.grid, max_repair_fraction=1.0)
    design = mesh_design(SMALL)
    engine.tables(design)
    victim = int(rng.integers(1, SMALL.num_tiles))
    links = tuple(l for l in design.links if victim not in l.endpoints())
    broken = NocDesign(placement=design.placement, links=links)
    # Annotate by hand so the engine takes the incremental-repair path.
    from repro.noc.design import MoveDelta, annotate_move

    broken = annotate_move(broken, MoveDelta.between(design, broken, "isolate"))
    repaired = engine.tables(broken)
    assert engine.incremental_repairs == 1
    fresh = RoutingTables(broken, SMALL.grid)
    assert not repaired.reachable_matrix()[0, victim]
    with pytest.raises(ValueError, match="no route"):
        route_links(repaired, 0, victim)
    with pytest.raises(ValueError, match="no route"):
        route_links(fresh, 0, victim)
    assert_engine_matches_fresh(repaired, fresh)


@given(
    seed=st.integers(min_value=0, max_value=5_000),
    num_changes=st.integers(min_value=1, max_value=4),
)
@SETTINGS
def test_multi_link_deltas_repair_exactly(seed, num_changes):
    """Composite deltas (several links changed at once) stay exact."""
    rng = np.random.default_rng(seed)
    design = random_design(SMALL, rng)
    current = design
    for _ in range(num_changes):
        candidate = SMALL_MOVES.rewire_link(current, rng)
        if candidate is not None:
            current = candidate
    if current is design:
        return
    parent_tables = RoutingTables(design, SMALL.grid)
    repaired = parent_tables.incremental_update(current.links)
    assert_engine_matches_fresh(repaired, RoutingTables(current, SMALL.grid))


@given(seed=st.integers(min_value=0, max_value=10_000))
@SETTINGS
def test_sample_paths_identical_tile_by_tile(seed):
    """Spot-check concrete path walks, not just the batch tables."""
    rng = np.random.default_rng(seed)
    engine = RoutingEngine(TINY.grid)
    design = random_design(TINY, rng)
    engine.tables(design)
    child = TINY_MOVES.random_neighbor(design, rng)
    served = engine.tables(child)
    fresh = RoutingTables(child, TINY.grid)
    for src in range(child.num_tiles):
        for dst in range(child.num_tiles):
            assert route_tiles(served, src, dst) == route_tiles(fresh, src, dst)
            assert route_links(served, src, dst) == route_links(fresh, src, dst)
    np.testing.assert_array_equal(served.pair_hops(), fresh.pair_hops())
