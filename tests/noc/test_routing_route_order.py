"""The retired route-order incidences, and the tables' sums against them.

The retired sweep (``tests/oracles/routing.py``) rebuilds ``P`` from a
table's predecessors, writing the ``s``-th step of each route straight into
slot ``s`` of the pair's row, so a row lists the last hop first.  These
tests pin that layout on random 256-tile designs (fresh and incrementally
repaired tables), against the retired route-order ``R`` builder whose rows
read ``dst, ..., src``, and check that its products are byte-identical to
the same products over the sorted-index CSR.  The tables' own sums are held
to those products: the route lengths and router port sums exactly, the link
loads byte for byte against the tree-order oracle and at ``rtol=1e-12``
against ``P.T @ f``.
"""

import numpy as np
import pytest

from repro.noc.constraints import random_design
from repro.noc.links import link_ends
from repro.noc.moves import MoveGenerator
from repro.noc.platform import PlatformConfig
from repro.noc.routing import RoutingTables
from tests.oracles.routing import (
    canonical_csr,
    pair_link_incidence,
    pair_tile_incidence,
    route_links,
    route_tiles,
    tree_link_loads,
)

BIG = PlatformConfig.big_8x8x4()


def _row_ids(matrix):
    return np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))


def _tables(seed):
    rng = np.random.default_rng(seed)
    design = random_design(BIG, rng)
    fresh = RoutingTables(design, BIG.grid)
    fresh.pair_hops()  # materialise: the repair below must not read the parent's tables
    child = MoveGenerator(BIG).random_neighbor(design, rng)
    return [(design, fresh), (child, fresh.incremental_update(child.links))]


@pytest.fixture(scope="module", params=[3, 17])
def designs_and_tables(request):
    return _tables(request.param)


def test_rows_run_from_destination_back_to_source(designs_and_tables):
    for _, tables in designs_and_tables:
        n = tables.num_tiles
        links, tiles = pair_link_incidence(tables), pair_tile_incidence(tables)
        pairs = np.arange(n * n)
        src, dst = pairs // n, pairs % n
        # Connected designs: every pair has a route of hops + 1 routers.
        assert np.array_equal(np.diff(tiles.indptr), np.diff(links.indptr) + 1)
        assert np.array_equal(tiles.indices[tiles.indptr[:-1]], dst)
        assert np.array_equal(tiles.indices[tiles.indptr[1:] - 1], src)
        # Link entry k of a row joins tile entries k and k + 1, and tile entry
        # k + 1 is the canonical predecessor of tile entry k.
        rows = _row_ids(links)
        rank = np.arange(links.indices.size) - links.indptr[rows]
        here = tiles.indices[tiles.indptr[rows] + rank]
        back = tiles.indices[tiles.indptr[rows] + rank + 1]
        assert np.array_equal(back, tables._predecessors[src[rows], here])
        used = np.sort(np.c_[here, back], axis=1)
        np.testing.assert_array_equal(link_ends(tables.links)[links.indices], used)


def test_sampled_rows_equal_reversed_paths(designs_and_tables):
    rng = np.random.default_rng(0)
    for _, tables in designs_and_tables:
        n = tables.num_tiles
        links, tiles = pair_link_incidence(tables), pair_tile_incidence(tables)
        for src, dst in rng.integers(n, size=(200, 2)).tolist():
            pair = src * n + dst
            link_row = links.indices[links.indptr[pair] : links.indptr[pair + 1]]
            tile_row = tiles.indices[tiles.indptr[pair] : tiles.indptr[pair + 1]]
            assert link_row.tolist() == route_links(tables, src, dst)[::-1]
            assert tile_row.tolist() == route_tiles(tables, src, dst)[::-1]


def test_products_are_byte_identical_to_the_sorted_index_oracle(designs_and_tables):
    rng = np.random.default_rng(1)
    for design, tables in designs_and_tables:
        links, tiles = pair_link_incidence(tables), pair_tile_incidence(tables)
        oracle_links = canonical_csr(_row_ids(links), links.indices, *links.shape)
        oracle_tiles = canonical_csr(_row_ids(tiles), tiles.indices, *tiles.shape)
        # Same entries, different in-row order (so the check is not vacuous).
        assert (links != oracle_links).nnz == 0 and (tiles != oracle_tiles).nnz == 0
        assert not links.has_sorted_indices and not tiles.has_sorted_indices
        frequencies = rng.random(links.shape[0]) * rng.choice([0.0, 1e-3, 1.0, 1e4], links.shape[0])
        ports = design.degrees().astype(np.float64) + 1.0
        assert (links.T @ frequencies).tobytes() == (oracle_links.T @ frequencies).tobytes()
        loads = tables.link_loads(frequencies)
        assert loads.tobytes() == tree_link_loads(tables, frequencies).tobytes()
        np.testing.assert_allclose(loads, oracle_links.T @ frequencies, rtol=1e-12, atol=0)
        assert (links @ tables.link_lengths).tobytes() == (oracle_links @ tables.link_lengths).tobytes()
        assert np.array_equal(tables.pair_lengths(), oracle_links @ tables.link_lengths)
        assert (tiles @ ports).tobytes() == (oracle_tiles @ ports).tobytes()
        assert np.array_equal(tables.pair_router_ports(), oracle_tiles @ ports)
