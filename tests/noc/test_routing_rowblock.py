"""Repaired tables are byte-identical to fresh builds.

``RoutingTables.incremental_update`` re-derives only the distances and
predecessors a link delta changes; every lazy pair table of the child (the
route-tree levels, hops, lengths, router port sums) is then built from the
child's own predecessors.  These tests pin the contract that the repair is
invisible — every array a fresh ``from_links`` build produces, and the link
loads over it, are byte-for-byte identical — on the 256-tile grid, across
delta shapes (single link, multiple links, placement-only, crossover-sized,
a tile cut off and restored) and along chains of repairs.
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
from tests.oracles.routing import (
    changed_route_pairs,
    pair_link_incidence,
    router_ports,
    tree_link_loads,
)

BIG = PlatformConfig.big_8x8x4()
SMALL = PlatformConfig.small_3x3x3()
TINY = PlatformConfig.tiny_2x2x2()


TREE_ARRAYS = {"_tree_pairs": np.int32, "_tree_parents": np.int32, "_tree_links": np.int16}


def assert_byte_identical(adopted: RoutingTables, fresh: RoutingTables) -> None:
    """Every pair-table array matches the fresh build byte for byte.

    ``tobytes()`` equality is stricter than ``==``: it also pins dtypes and
    element order, so a repair that produced the right values in a different
    dtype (e.g. int64 pairs where the tables store int32) still fails.  The
    link loads of one weight vector must match too.  The router port sums
    are also pinned to the retired ``R @ (degrees + 1)`` oracle, since a
    repaired child must derive them from its own degrees.

    The distances are pinned byte for byte too: link weights are
    ``1 + length / 1024``, so every path sum is exact in any summation
    order, and a row kept from the parent, a row rebuilt in the cut block
    and a row updated in closed form all hold the same bits.
    """
    weights = np.random.default_rng(0).random(fresh.num_tiles**2)
    assert adopted.link_loads(weights).tobytes() == fresh.link_loads(weights).tobytes()
    for attr, dtype in TREE_ARRAYS.items():
        left, right = getattr(adopted, attr), getattr(fresh, attr)
        assert left.dtype == right.dtype == dtype, f"{attr} dtype"
        assert left.tobytes() == right.tobytes(), f"{attr} bytes"
    assert adopted._level_starts == fresh._level_starts
    assert adopted.pair_hops().tobytes() == fresh.pair_hops().tobytes()
    assert adopted.pair_router_ports().tobytes() == fresh.pair_router_ports().tobytes()
    assert np.array_equal(adopted.pair_router_ports(), router_ports(adopted))
    assert adopted.pair_lengths().tobytes() == fresh.pair_lengths().tobytes()
    np.testing.assert_array_equal(adopted._predecessors, fresh._predecessors)
    assert adopted._distance.dtype == fresh._distance.dtype == np.float32
    assert adopted._distance.tobytes() == fresh._distance.tobytes()


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
    """Seeded equivalence on the 8x8x4 grid (the scale repairs target)."""

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
        so every distance and predecessor row is the parent's — still
        byte-identical."""
        design, tables = parent
        updated = tables.incremental_update(design.links)
        fresh = RoutingTables.from_links(design.links, BIG.num_tiles, BIG.grid)
        assert_byte_identical(updated, fresh)

    def test_adoption_after_parent_tables_materialised(self, parent):
        """Building the parent's pair tables first (the cache-warm case an
        engine is always in) must not change the child."""
        design, tables = parent
        tables.pair_hops()  # force the lazy build
        rng = np.random.default_rng(3)
        child_links, fresh = rewired_links(design.links, rng, moves=2)
        assert_byte_identical(tables.incremental_update(child_links), fresh)


class TestMoveGeneratorDeltas:
    """Repairs under the real move operators on the 27-tile platform."""

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
    """Hypothesis: chained random moves keep repairs byte-exact (tiny grid)."""
    moves = MoveGenerator(TINY)
    rng = np.random.default_rng(seed)
    design = random_design(TINY, rng)
    tables = RoutingTables(design, TINY.grid)
    for _ in range(steps):
        design = moves.random_neighbor(design, rng)
        tables = tables.incremental_update(design.links)
        fresh = RoutingTables.from_links(design.links, TINY.num_tiles, TINY.grid)
        assert_byte_identical(tables, fresh)


# ---------------------------------------------------------------------- #
# Pair-granular repair: changed routes, on real rewires
# ---------------------------------------------------------------------- #
PAPER = PlatformConfig.paper_4x4x4()


def fresh_tables(links, platform):
    return RoutingTables.from_links(links, platform.num_tiles, platform.grid)


class TestChangedPairSet:
    """Repairs that change routes still match a fresh build byte for byte."""

    @pytest.mark.parametrize("platform", [SMALL, PAPER], ids=lambda p: p.name)
    def test_rewires_that_move_routes_match_fresh(self, platform):
        moves = MoveGenerator(platform)
        rng = np.random.default_rng(21)
        design = random_design(platform, 4)
        tables = RoutingTables(design, platform.grid)
        tables.pair_hops()
        nonempty = 0
        for _ in range(4):
            child = None
            while child is None:
                child = moves.rewire_link(design, rng)
            repaired = tables.incremental_update(child.links)
            fresh = fresh_tables(child.links, platform)
            np.testing.assert_array_equal(
                changed_route_pairs(tables, repaired), changed_route_pairs(tables, fresh)
            )
            assert_byte_identical(repaired, fresh)
            nonempty += changed_route_pairs(tables, repaired).size > 0
        assert nonempty, "no rewire changed a route: the check proved nothing"

    def test_crossover_sized_delta(self):
        """A delta that changes about 40% of the links (NSGA-II crossover
        children are that large) leaves most predecessors stale; the repair
        must still match a fresh build."""
        design = random_design(PAPER, 8)
        tables = RoutingTables(design, PAPER.grid)
        tables.pair_hops()
        rng = np.random.default_rng(12)
        pool = [c for c in candidate_links(PAPER) if c not in set(design.links)]
        moves = int(0.4 * len(design.links))
        for _ in range(50):
            dropped = set(rng.choice(len(design.links), size=moves, replace=False).tolist())
            kept = [link for i, link in enumerate(design.links) if i not in dropped]
            added = [pool[i] for i in rng.choice(len(pool), size=moves, replace=False).tolist()]
            links = tuple(sorted(kept + added))
            fresh = fresh_tables(links, PAPER)
            if np.isfinite(fresh._distance).all():
                break
        repaired = tables.incremental_update(links)
        assert_byte_identical(repaired, fresh)
        assert changed_route_pairs(tables, repaired).size > 0

    def test_placement_delta_changes_no_route(self):
        design = random_design(PAPER, 2)
        tables = RoutingTables(design, PAPER.grid)
        tables.pair_hops()
        repaired = tables.incremental_update(design.links)
        assert changed_route_pairs(tables, repaired).size == 0
        assert_byte_identical(repaired, fresh_tables(design.links, PAPER))


class TestDisconnectReconnect:
    """Cutting every link of a tile, then restoring them, stays byte-exact."""

    def test_tile_cut_off_and_restored(self):
        design = random_design(PAPER, 6)
        tables = RoutingTables(design, PAPER.grid)
        tables.pair_hops()
        tile = 5
        cut = tuple(link for link in design.links if tile not in link)
        assert len(cut) < len(design.links)
        isolated = tables.incremental_update(cut)
        assert_byte_identical(isolated, fresh_tables(cut, PAPER))
        assert not isolated.reachable_matrix()[tile, :tile].any()
        # Every route to or from the cut tile disappeared, and so did its
        # pairs from the route trees.
        num_tiles = PAPER.num_tiles
        to_tile = np.arange(num_tiles) * num_tiles + tile
        from_tile = tile * num_tiles + np.arange(num_tiles)
        lost = np.setdiff1d(np.r_[to_tile, from_tile], [tile * num_tiles + tile])
        assert np.isin(lost, changed_route_pairs(tables, isolated)).all()
        assert not np.isin(lost, isolated._tree_pairs).any()

        restored = isolated.incremental_update(design.links)
        assert_byte_identical(restored, fresh_tables(design.links, PAPER))
        assert np.isin(lost, restored._tree_pairs).all()


def tie_only_link(platform, seed):
    """An absent link plus a source whose distances it ties but never beats.

    Adding the link leaves that source's distance row unchanged (within the
    tie tolerance) yet flips one of its canonical predecessors, because the
    link's end offers a smaller-id predecessor at equal cost.
    """
    design = random_design(platform, seed)
    tables = RoutingTables(design, platform.grid)
    present = set(design.links)
    for link in candidate_links(platform):
        if link in present:
            continue
        links = tuple(sorted(design.links + (link,)))
        fresh = fresh_tables(links, platform)
        same = np.isclose(
            fresh._distance, tables._distance, rtol=0, atol=RoutingTables._TIE_TOLERANCE
        ).all(axis=1)
        flipped = (fresh._predecessors != tables._predecessors).any(axis=1)
        sources = np.flatnonzero(same & flipped)
        if sources.size:
            return tables, links, fresh, int(sources[0])
    raise AssertionError("no tie-only link on this design")


def test_tie_only_added_link_flips_predecessor():
    """A tie moves no distance, so only the changed link's endpoints tell
    the repair which predecessors to re-derive; the flip must still land."""
    tables, links, fresh, source = tie_only_link(SMALL, 0)
    tables.pair_hops()
    repaired = tables.incremental_update(links)
    assert_byte_identical(repaired, fresh)
    num_tiles = SMALL.num_tiles
    flipped = np.flatnonzero(fresh._predecessors[source] != tables._predecessors[source])
    assert np.isin(source * num_tiles + flipped, changed_route_pairs(tables, repaired)).all()


def test_repair_of_repair_chain_at_64_tiles():
    """Five chained rewires, each repaired from the previous repair."""
    moves = MoveGenerator(PAPER)
    rng = np.random.default_rng(33)
    design = random_design(PAPER, 9)
    tables = RoutingTables(design, PAPER.grid)
    tables.pair_hops()
    for _ in range(5):
        child = None
        while child is None:
            child = moves.rewire_link(design, rng)
        tables = tables.incremental_update(child.links)
        assert_byte_identical(tables, fresh_tables(child.links, PAPER))
        design = child


def test_link_loads_match_tree_oracle_at_256_tiles():
    """At 256 tiles the route trees are many levels deep; the loads must
    equal the scalar tree walk byte for byte on a fresh and on a repaired
    table, and scipy's ``P.T @ f`` to 1e-12."""
    design = random_design(BIG, 3)
    tables = RoutingTables(design, BIG.grid)
    tables.pair_hops()
    child_links, _ = rewired_links(design.links, np.random.default_rng(4), moves=2)
    rng = np.random.default_rng(5)
    num_pairs = BIG.num_tiles**2
    for table in (tables, tables.incremental_update(child_links)):
        weights = rng.random(num_pairs) * rng.choice([0.0, 1e-3, 1.0, 1e4], num_pairs)
        loads = table.link_loads(weights)
        assert len(table._level_starts) > 4
        assert loads.tobytes() == tree_link_loads(table, weights).tobytes()
        np.testing.assert_allclose(loads, pair_link_incidence(table).T @ weights, rtol=1e-12, atol=0)
