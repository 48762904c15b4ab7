"""Row-block pair-table adoption: spliced tables are byte-identical to fresh.

``RoutingTables.incremental_update`` no longer rebuilds the lazy pair tables
from scratch: surviving parent rows are spliced block-wise into the child's
``P`` pattern (``_adopt_pair_tables`` / ``_route_order_pattern``).  These tests pin
the contract that adoption is invisible — every array a fresh
``from_links`` build produces is byte-for-byte identical, on the 256-tile
grid the optimisation targets and across delta shapes (single link, multiple
links, placement-only).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.noc.constraints import random_design
from repro.noc.design import NocDesign
from repro.noc.links import Link, candidate_links
from repro.noc.moves import MoveGenerator
from repro.noc.platform import PlatformConfig
from repro.noc.routing import RoutingTables
from tests.oracles.routing import router_ports

BIG = PlatformConfig.big_8x8x4()
SMALL = PlatformConfig.small_3x3x3()
TINY = PlatformConfig.tiny_2x2x2()


def assert_byte_identical(adopted: RoutingTables, fresh: RoutingTables) -> None:
    """Every pair-table array matches the fresh build byte for byte.

    ``tobytes()`` equality is stricter than ``==``: it also pins dtypes and
    element order, so a splice that produced the right values in a different
    dtype (e.g. int64 indices where the tables store int32) still fails.
    The router port sums are also pinned to the retired ``R @ (degrees +
    1)`` oracle, since a repaired child must derive them from its own
    degrees.

    The raw Dijkstra ``_distance`` is the one exception: for equal-cost path
    ties, scipy's traversal order (and thus float summation grouping) depends
    on the graph it ran on, so adopted parent rows can differ from a fresh
    child build by ~1 ulp.  That is exactly why canonical predecessors are
    derived with ``_TIE_TOLERANCE`` — everything downstream of the tolerance
    (routes, hops, incidences, objectives) is byte-checked above; the raw
    distances are pinned to the tolerance instead.
    """
    for attr, left, right in zip(
        ("indptr", "indices"), adopted.pair_link_pattern(), fresh.pair_link_pattern()
    ):
        assert left.dtype == right.dtype, f"pattern {attr} dtype"
        assert left.tobytes() == right.tobytes(), f"pattern {attr} bytes"
    assert adopted.pair_hops().tobytes() == fresh.pair_hops().tobytes()
    assert adopted.pair_router_ports().tobytes() == fresh.pair_router_ports().tobytes()
    assert np.array_equal(adopted.pair_router_ports(), router_ports(adopted))
    assert adopted.pair_lengths().tobytes() == fresh.pair_lengths().tobytes()
    np.testing.assert_array_equal(adopted._predecessors, fresh._predecessors)
    np.testing.assert_allclose(
        adopted._distance, fresh._distance, rtol=0, atol=RoutingTables._TIE_TOLERANCE
    )


def rewired_links(links, rng, moves=1):
    """A feasible-ish link-set delta: swap ``moves`` links for unused candidates.

    Feasibility (degree caps, budgets) does not matter for routing-table
    equivalence — only connectivity does, which replacing non-bridge links
    preserves often enough that we simply retry until the fresh build agrees
    the graph stayed connected.
    """
    pool = [c for c in candidate_links(BIG) if c not in set(links)]
    for _ in range(200):
        trial = list(links)
        removed = rng.choice(len(trial), size=moves, replace=False)
        added = rng.choice(len(pool), size=moves, replace=False)
        for slot, pick in zip(sorted(removed.tolist(), reverse=True), added.tolist()):
            trial[slot] = pool[pick]
        trial_tuple = tuple(sorted(trial))
        fresh = RoutingTables.from_links(trial_tuple, BIG.num_tiles, BIG.grid)
        if np.all(np.isfinite(fresh._distance)):
            return trial_tuple, fresh
    raise AssertionError("no connected rewire found in 200 tries")


class TestBigGridAdoption:
    """Seeded equivalence on the 8x8x4 grid (the scale that motivated splicing)."""

    @pytest.fixture(scope="class")
    def parent(self):
        design = random_design(BIG, 7)
        return design, RoutingTables(design, BIG.grid)

    def test_single_link_rewire_matches_fresh(self, parent):
        design, tables = parent
        rng = np.random.default_rng(1)
        child_links, fresh = rewired_links(design.links, rng, moves=1)
        assert_byte_identical(tables.incremental_update(child_links), fresh)

    def test_multi_link_rewire_matches_fresh(self, parent):
        design, tables = parent
        rng = np.random.default_rng(2)
        for moves in (2, 4, 8):
            child_links, fresh = rewired_links(design.links, rng, moves=moves)
            assert_byte_identical(tables.incremental_update(child_links), fresh)

    def test_placement_delta_adopts_every_row(self, parent):
        """A placement-only move keeps the link set: zero affected sources,
        so adoption splices *all* parent rows — still byte-identical."""
        design, tables = parent
        updated = tables.incremental_update(design.links)
        fresh = RoutingTables.from_links(design.links, BIG.num_tiles, BIG.grid)
        assert_byte_identical(updated, fresh)

    def test_adoption_after_parent_tables_materialised(self, parent):
        """Splicing reads the parent's built tables; building them first (the
        cache-warm case an engine is always in) must not change the child."""
        design, tables = parent
        tables.pair_link_pattern()  # force the lazy build
        tables.pair_router_ports()
        rng = np.random.default_rng(3)
        child_links, fresh = rewired_links(design.links, rng, moves=2)
        assert_byte_identical(tables.incremental_update(child_links), fresh)


class TestMoveGeneratorDeltas:
    """Adoption under the real move operators on the 27-tile platform."""

    def test_rewire_chain_matches_fresh(self):
        moves = MoveGenerator(SMALL)
        rng = np.random.default_rng(11)
        design = random_design(SMALL, 5)
        tables = RoutingTables(design, SMALL.grid)
        for _ in range(6):
            child = moves.random_neighbor(design, rng)
            updated = tables.incremental_update(child.links)
            fresh = RoutingTables.from_links(child.links, SMALL.num_tiles, SMALL.grid)
            assert_byte_identical(updated, fresh)
            design, tables = child, updated


@given(seed=st.integers(min_value=0, max_value=10_000), steps=st.integers(min_value=1, max_value=5))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_adopted_rows_byte_identical_property(seed, steps):
    """Hypothesis: chained random moves keep adoption byte-exact (tiny grid)."""
    moves = MoveGenerator(TINY)
    rng = np.random.default_rng(seed)
    design = random_design(TINY, rng)
    tables = RoutingTables(design, TINY.grid)
    for _ in range(steps):
        design = moves.random_neighbor(design, rng)
        tables = tables.incremental_update(design.links)
        fresh = RoutingTables.from_links(design.links, TINY.num_tiles, TINY.grid)
        assert_byte_identical(tables, fresh)
