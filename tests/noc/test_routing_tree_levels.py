"""Route-tree levels: the layout behind link loads, hops, lengths and port sums.

``RoutingTables`` lays every routed pair out by hop level and keeps, per
pair, its parent's rank in the level above and its last-hop link.  These
tests pin that layout against the predecessor matrix, hold the derived
tables to the retired route-order sweep (``tests/oracles/routing.py``) on
every preset, connected and disconnected, and check the limits the
integer derivations refuse to cross.
"""

import numpy as np
import pytest

from repro.noc.constraints import random_design
from repro.noc.links import link_ends
from repro.noc.platform import PlatformConfig
from repro.noc.routing import RoutingTables
from repro.objectives.latency import cpu_llc_latency
from repro.workloads.registry import get_workload
from tests.oracles.routing import pair_link_incidence, route_links, router_ports, tree_link_loads

PRESETS = [
    PlatformConfig.tiny_2x2x2(),
    PlatformConfig.small_3x3x3(),
    PlatformConfig.paper_4x4x4(),
]


def preset_tables(platform, seed, cut_tile=None):
    """Tables of a random design; with ``cut_tile``, that tile's links removed."""
    links = random_design(platform, seed).links
    if cut_tile is not None:
        links = tuple(link for link in links if cut_tile not in link)
    return RoutingTables.from_links(links, platform.num_tiles, platform.grid)


@pytest.fixture(
    scope="module",
    params=[(p, cut) for p in PRESETS for cut in (None, 1)],
    ids=lambda param: f"{param[0].name}-{'cut' if param[1] is not None else 'connected'}",
)
def tables(request):
    platform, cut = request.param
    built = preset_tables(platform, 5, cut)
    built.pair_hops()
    return built


def test_levels_follow_the_predecessor_trees(tables):
    n = tables.num_tiles
    pairs, parents, links = tables._tree_pairs, tables._tree_parents, tables._tree_links
    starts = tables._level_starts
    assert starts[0] == 0 and starts[-1] == pairs.size
    src, dst = np.divmod(pairs.astype(np.int64), n)
    pred = tables._predecessors[src, dst].astype(np.int64)
    # Exactly the routed pairs, level by level, ascending inside a level.
    routed = np.flatnonzero(tables.reachable_pairs() & (np.arange(n * n) % (n + 1) != 0))
    np.testing.assert_array_equal(np.sort(pairs), routed)
    for level in range(1, len(starts)):
        block = pairs[starts[level - 1] : starts[level]]
        assert np.all(np.diff(block) > 0)
        assert np.all(tables.pair_hops()[block] == level)
        if level > 1:
            above = pairs[starts[level - 2] : starts[level - 1]]
            rows = slice(starts[level - 1], starts[level])
            np.testing.assert_array_equal(above[parents[rows]], src[rows] * n + pred[rows])
        else:
            np.testing.assert_array_equal(pred[: starts[1]], src[: starts[1]])
    # The last hop joins the predecessor and the destination.
    ends = link_ends(tables.links)[links]
    np.testing.assert_array_equal(np.sort(ends, axis=1), np.sort(np.c_[pred, dst], axis=1))


def test_link_loads_match_the_tree_oracle(tables):
    rng = np.random.default_rng(7)
    num_pairs = tables.num_tiles**2
    weights = rng.random(num_pairs) * rng.choice([0.0, 1e-3, 1.0, 1e4], num_pairs)
    loads = tables.link_loads(weights)
    assert loads.dtype == np.float64 and loads.shape == (tables.num_links,)
    assert loads.tobytes() == tree_link_loads(tables, weights).tobytes()
    np.testing.assert_allclose(loads, pair_link_incidence(tables).T @ weights, rtol=1e-12, atol=0)


def test_hops_lengths_and_ports_match_the_retired_sweep(tables):
    incidence = pair_link_incidence(tables)
    hops = tables.pair_hops()
    assert hops.dtype == np.int16 and tables.pair_lengths().dtype == np.int16
    np.testing.assert_array_equal(hops, np.diff(incidence.indptr))
    np.testing.assert_array_equal(tables.pair_lengths(), incidence @ tables.link_lengths)
    np.testing.assert_array_equal(tables.pair_router_ports(), router_ports(tables))
    for array in (hops, tables.pair_lengths(), tables.pair_router_ports(), tables._tree_pairs):
        assert not array.flags.writeable


def test_int16_tables_equal_the_walked_routes():
    platform = PlatformConfig.paper_4x4x4()
    tables = preset_tables(platform, 2)
    for src, dst in [(0, 63), (5, 40), (17, 17), (62, 1)]:
        links = route_links(tables, src, dst)
        pair = src * tables.num_tiles + dst
        assert float(tables.pair_lengths()[pair]) == float(tables.link_lengths[links].sum())
        assert tables.pair_hops()[pair] == len(links)


def test_cpu_llc_latency_keeps_its_float_bits():
    """int16 lengths widen exactly: the latency equals the float64-length sum."""
    platform = PlatformConfig.paper_4x4x4()
    workload = get_workload("BFS", platform, seed=0)
    design = random_design(platform, 3)
    tables = RoutingTables(design, platform.grid)
    cpu = np.asarray(platform.cpu_ids)
    llc = np.asarray(platform.llc_ids)
    tile = design.tile_of_pe()
    frequencies = workload.traffic[np.ix_(cpu, llc)] + workload.traffic[np.ix_(llc, cpu)].T
    pairs = tile[cpu][:, None] * platform.num_tiles + tile[llc][None, :]
    hops = tables.pair_hops()[pairs].astype(np.int64)
    latencies = platform.router_stages * hops + tables.pair_lengths()[pairs].astype(np.float64)
    expected = float((latencies * frequencies).sum()) / (len(cpu) * len(llc))
    assert cpu_llc_latency(design, workload, tables) == expected


def test_a_table_without_links_routes_nothing():
    platform = PlatformConfig.tiny_2x2x2()
    tables = RoutingTables.from_links((), platform.num_tiles, platform.grid)
    assert tables.link_loads(np.ones(platform.num_tiles**2)).shape == (0,)
    assert tables._tree_pairs.size == 0 and tables._level_starts == (0, 0)
    assert not tables.pair_hops().any() and not tables.pair_lengths().any()
    np.testing.assert_array_equal(
        tables.pair_router_ports().reshape(platform.num_tiles, -1), np.eye(platform.num_tiles)
    )


def test_hop_counts_refuse_routes_too_long_for_the_tie_break(monkeypatch):
    """With a length scale of 2, ``epsilon * length >= 0.5`` and a distance no
    longer rounds to its hop count; the tree check catches it instead of
    mislabelling levels."""
    platform = PlatformConfig.small_3x3x3()
    monkeypatch.setattr(RoutingTables, "_LENGTH_SCALE", 2)
    tables = preset_tables(platform, 1)
    with pytest.raises(ValueError, match="route lengths too long"):
        tables.pair_hops()


def test_route_lengths_beyond_int16_raise_instead_of_wrapping():
    platform = PlatformConfig.paper_4x4x4()
    tables = preset_tables(platform, 1)
    tables.link_lengths = tables.link_lengths * 32768.0
    with pytest.raises(OverflowError, match="int16"):
        tables.pair_lengths()


def test_router_port_sums_beyond_int16_raise_instead_of_wrapping():
    """A link listed 17,000 times gives its ends 17,001 ports each, so the
    route between them sums past the int16 port table."""
    platform = PlatformConfig.tiny_2x2x2()
    link = random_design(platform, 0).links[0]
    tables = RoutingTables.from_links((link,) * 17_000, platform.num_tiles, platform.grid)
    with pytest.raises(OverflowError, match="router port sum .* int16"):
        tables.pair_router_ports()


def test_link_ids_beyond_int16_raise_instead_of_wrapping():
    platform = PlatformConfig.tiny_2x2x2()
    link = random_design(platform, 0).links[0]
    tables = RoutingTables.from_links((link,) * 32_769, platform.num_tiles, platform.grid)
    with pytest.raises(OverflowError, match="link ids do not fit the int16"):
        tables.link_loads(np.ones(platform.num_tiles**2))
