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
from tests.oracles.routing import changed_route_pairs, pair_link_incidence, router_ports

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


# ---------------------------------------------------------------------- #
# Pair-granular repair: only the routes a rewire changes are re-swept
# ---------------------------------------------------------------------- #
PAPER = PlatformConfig.paper_4x4x4()


def repair_and_swept_pairs(tables, links, monkeypatch):
    """``tables.incremental_update(links)`` plus the flat pairs it re-swept.

    Spies on the pair-table builder, which a repair calls once with the
    pairs whose routes it re-derives (the parent's tables must be built).
    """
    swept = []
    original = RoutingTables._route_pair_tables

    def spy(self, changed_pairs, *args):
        swept.append(np.array(changed_pairs))
        return original(self, changed_pairs, *args)

    monkeypatch.setattr(RoutingTables, "_route_pair_tables", spy)
    child = tables.incremental_update(links)
    monkeypatch.undo()
    assert len(swept) == 1, "a repair of built tables adopts them exactly once"
    return child, swept[0]


def fresh_tables(links, platform):
    return RoutingTables.from_links(links, platform.num_tiles, platform.grid)


class TestChangedPairSet:
    """The re-swept pairs are exactly the pairs whose tile path changed."""

    @pytest.mark.parametrize("platform", [SMALL, PAPER], ids=lambda p: p.name)
    def test_swept_pairs_match_brute_force_path_diff(self, platform, monkeypatch):
        moves = MoveGenerator(platform)
        rng = np.random.default_rng(21)
        design = random_design(platform, 4)
        tables = RoutingTables(design, platform.grid)
        tables.pair_link_pattern()
        nonempty = 0
        for _ in range(4):
            child = None
            while child is None:
                child = moves.rewire_link(design, rng)
            repaired, swept = repair_and_swept_pairs(tables, child.links, monkeypatch)
            np.testing.assert_array_equal(swept, changed_route_pairs(tables, repaired))
            assert_byte_identical(repaired, fresh_tables(child.links, platform))
            nonempty += swept.size > 0
        assert nonempty, "no rewire changed a route: the check proved nothing"

    def test_crossover_sized_delta(self, monkeypatch):
        """A delta that changes about 40% of the links (NSGA-II crossover
        children are that large) leaves most predecessors stale; the repair
        must still match a fresh build and sweep exactly the changed pairs."""
        design = random_design(PAPER, 8)
        tables = RoutingTables(design, PAPER.grid)
        tables.pair_link_pattern()
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
        repaired, swept = repair_and_swept_pairs(tables, links, monkeypatch)
        assert_byte_identical(repaired, fresh)
        np.testing.assert_array_equal(swept, changed_route_pairs(tables, repaired))

    def test_placement_delta_sweeps_nothing(self, monkeypatch):
        design = random_design(PAPER, 2)
        tables = RoutingTables(design, PAPER.grid)
        tables.pair_link_pattern()
        repaired, swept = repair_and_swept_pairs(tables, design.links, monkeypatch)
        assert swept.size == 0
        assert_byte_identical(repaired, fresh_tables(design.links, PAPER))


class TestDisconnectReconnect:
    """Cutting every link of a tile, then restoring them, stays byte-exact."""

    def test_tile_cut_off_and_restored(self, monkeypatch):
        design = random_design(PAPER, 6)
        tables = RoutingTables(design, PAPER.grid)
        tables.pair_link_pattern()
        tile = 5
        cut = tuple(link for link in design.links if tile not in link)
        assert len(cut) < len(design.links)
        isolated, swept = repair_and_swept_pairs(tables, cut, monkeypatch)
        assert_byte_identical(isolated, fresh_tables(cut, PAPER))
        assert not isolated.reachable_matrix()[tile, :tile].any()
        # Every route to or from the cut tile disappeared, so each was swept.
        num_tiles = PAPER.num_tiles
        to_tile = np.arange(num_tiles) * num_tiles + tile
        from_tile = tile * num_tiles + np.arange(num_tiles)
        lost = np.setdiff1d(np.r_[to_tile, from_tile], [tile * num_tiles + tile])
        assert np.isin(lost, swept).all()
        np.testing.assert_array_equal(swept, changed_route_pairs(tables, isolated))

        restored, swept = repair_and_swept_pairs(isolated, design.links, monkeypatch)
        assert_byte_identical(restored, fresh_tables(design.links, PAPER))
        np.testing.assert_array_equal(swept, changed_route_pairs(isolated, restored))


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


def test_tie_only_added_link_flips_predecessor(monkeypatch):
    """A tie moves no distance, so only the changed link's endpoints tell
    the repair which predecessors to re-derive; the flip must still land."""
    tables, links, fresh, source = tie_only_link(SMALL, 0)
    tables.pair_link_pattern()
    repaired, swept = repair_and_swept_pairs(tables, links, monkeypatch)
    assert_byte_identical(repaired, fresh)
    num_tiles = SMALL.num_tiles
    flipped = np.flatnonzero(fresh._predecessors[source] != tables._predecessors[source])
    assert np.isin(source * num_tiles + flipped, swept).all()
    np.testing.assert_array_equal(swept, changed_route_pairs(tables, repaired))


def test_repair_of_repair_chain_at_64_tiles():
    """Five chained rewires, each repaired from the previous repair."""
    moves = MoveGenerator(PAPER)
    rng = np.random.default_rng(33)
    design = random_design(PAPER, 9)
    tables = RoutingTables(design, PAPER.grid)
    tables.pair_link_pattern()
    for _ in range(5):
        child = None
        while child is None:
            child = moves.rewire_link(design, rng)
        tables = tables.incremental_update(child.links)
        assert_byte_identical(tables, fresh_tables(child.links, PAPER))
        design = child


def test_blocked_link_loads_match_sparse_product_at_256_tiles():
    """``link_loads`` walks the pairs in blocks; at 256 tiles there are
    several, and the sums must still equal scipy's ``P.T @ f`` byte for
    byte on a fresh and on a repaired table."""
    design = random_design(BIG, 3)
    tables = RoutingTables(design, BIG.grid)
    tables.pair_link_pattern()
    child_links, _ = rewired_links(design.links, np.random.default_rng(4), moves=2)
    rng = np.random.default_rng(5)
    num_pairs = BIG.num_tiles**2
    assert num_pairs > 2 * RoutingTables._LOAD_BLOCK
    for table in (tables, tables.incremental_update(child_links)):
        weights = rng.random(num_pairs) * rng.choice([0.0, 1e-3, 1.0, 1e4], num_pairs)
        expected = pair_link_incidence(table).T @ weights
        assert table.link_loads(weights).tobytes() == expected.tobytes()
