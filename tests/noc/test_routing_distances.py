"""Integer all-pairs distances match scipy Dijkstra byte for byte.

A table computes its distances on the integers ``q = 1024 * hops + length``:
a fresh build runs Floyd–Warshall in int16 and redoes the table in int32
only when a pair is unreachable or 16 or more hops away; a repair updates
the parent's distances in place.  Both must give the float32 bytes of the
retired scipy Dijkstra (``tests/oracles/routing.py::scipy_distances``), and
a repaired table must hold every array of a fresh build.
"""

import numpy as np
import pytest

from repro.noc import routing
from repro.noc.constraints import random_design
from repro.noc.links import Link, candidate_links
from repro.noc.moves import MoveGenerator
from repro.noc.platform import PlatformConfig
from repro.noc.routing import RoutingTables
from tests.noc.test_routing_rowblock import assert_byte_identical
from tests.oracles.routing import scipy_distances

PRESETS = [
    PlatformConfig.small_3x3x3(),
    PlatformConfig.paper_4x4x4(),
    PlatformConfig.big_8x8x4(),
]
PAPER = PlatformConfig.paper_4x4x4()


def fresh(links, platform) -> RoutingTables:
    tables = RoutingTables.from_links(links, platform.num_tiles, platform.grid)
    tables.pair_hops()
    return tables


def assert_matches_scipy(tables: RoutingTables) -> None:
    assert tables._distance.dtype == np.float32
    assert tables._distance.tobytes() == scipy_distances(tables).tobytes()


def assert_repair_exact(parent: RoutingTables, links, platform) -> RoutingTables:
    """Repair ``parent`` to ``links``; pin it to the oracle and to a fresh build."""
    repaired = parent.incremental_update(links)
    assert_matches_scipy(repaired)
    assert_byte_identical(repaired, fresh(links, platform))
    return repaired


@pytest.fixture
def kernel_dtypes(monkeypatch):
    """The dtype of every matrix the Floyd–Warshall kernel runs on, in call order."""
    seen = []
    kernel = routing._floyd_warshall

    def spy(q):
        seen.append(q.dtype)
        kernel(q)

    monkeypatch.setattr(routing, "_floyd_warshall", spy)
    return seen


@pytest.mark.parametrize("platform", PRESETS, ids=lambda platform: platform.name)
def test_fresh_distances_match_scipy(platform, kernel_dtypes):
    for seed in range(3):
        assert_matches_scipy(fresh(random_design(platform, seed).links, platform))
    # Connected preset designs never need the int32 pass.
    assert set(kernel_dtypes) == {np.dtype(np.int16)}


@pytest.mark.parametrize("platform", PRESETS, ids=lambda platform: platform.name)
def test_rewire_repairs_match_scipy(platform):
    parent_design = random_design(platform, 1)
    parent = fresh(parent_design.links, platform)
    moves = MoveGenerator(platform)
    rng = np.random.default_rng(7)
    repaired = 0
    while repaired < 6:
        child = moves.rewire_link(parent_design, rng)
        if child is not None:
            assert_repair_exact(parent, child.links, platform)
            repaired += 1


def test_disconnected_link_set_widens_to_int32(kernel_dtypes):
    links = tuple(link for link in random_design(PAPER, 2).links if 9 not in link)
    tables = fresh(links, PAPER)
    assert_matches_scipy(tables)
    assert np.isinf(tables._distance[9, :9]).all()
    assert kernel_dtypes == [np.dtype(np.int16), np.dtype(np.int32)]


def test_chain_longer_than_16_hops_widens_to_int32(kernel_dtypes):
    chain = tuple(Link.make(tile, tile + 1) for tile in range(PAPER.num_tiles - 1))
    tables = fresh(chain, PAPER)
    assert_matches_scipy(tables)
    assert np.isfinite(tables._distance).all()
    assert tables.pair_hops().max() == PAPER.num_tiles - 1
    assert kernel_dtypes == [np.dtype(np.int16), np.dtype(np.int32)]

    # A repair of a chain parent shortcuts its middle and drops the link
    # ahead of the shortcut's far end.
    shortcut = tuple(sorted(set(chain) - {Link.make(40, 41)} | {Link.make(10, 40)}))
    assert_repair_exact(tables, shortcut, PAPER)


@pytest.mark.parametrize("platform", PRESETS[1:], ids=lambda platform: platform.name)
def test_tile_cut_off_and_restored_matches_scipy(platform):
    design = random_design(platform, 3)
    parent = fresh(design.links, platform)
    tile = 6
    cut = tuple(link for link in design.links if tile not in link)
    isolated = assert_repair_exact(parent, cut, platform)
    assert np.isinf(isolated._distance[tile, :tile]).all()
    restored = assert_repair_exact(isolated, design.links, platform)
    assert restored._distance.tobytes() == parent._distance.tobytes()


@pytest.mark.parametrize("changed", [2, 3, 5])
def test_multi_link_deltas_match_scipy(changed):
    design = random_design(PAPER, 4)
    parent = fresh(design.links, PAPER)
    rng = np.random.default_rng(changed)
    unused = [link for link in candidate_links(PAPER) if link not in set(design.links)]
    for _ in range(4):
        kept = list(design.links)
        for index in sorted(rng.choice(len(kept), size=changed, replace=False), reverse=True):
            del kept[index]
        added = [unused[index] for index in rng.choice(len(unused), size=changed, replace=False)]
        assert_repair_exact(parent, tuple(sorted(kept + added)), PAPER)
