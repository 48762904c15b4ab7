"""Per-platform geometry and candidate-link tables: built once, shared, never mutated.

Grid coordinates, edge flags and the candidate link pools are pure functions
of the platform, so every caller shares one copy.  Seeded searches index into
the pools with ``rng.permutation(len(pool))``, so the pools must also keep
their exact historical order — checked here against a brute-force
enumeration written independently of the library code.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.noc.geometry import Grid3D, TileCoord
from repro.noc.links import (
    Link,
    candidate_links,
    candidate_planar_links,
    candidate_vertical_links,
)
from repro.noc.platform import PlatformConfig

PLATFORMS = [
    PlatformConfig.tiny_2x2x2(),
    PlatformConfig.small_3x3x3(),
    PlatformConfig.paper_4x4x4(),
    PlatformConfig.flat_4x4x1(),
]


def _brute_coords(config):
    """(x, y, z) of every tile id, layer-major then row-major."""
    return [
        (x, y, z)
        for z in range(config.layers)
        for y in range(config.n)
        for x in range(config.n)
    ]


def _brute_planar(config):
    coords = _brute_coords(config)
    pool = []
    for a in range(config.num_tiles):
        for b in range(a + 1, config.num_tiles):
            (xa, ya, za), (xb, yb, zb) = coords[a], coords[b]
            if za == zb and 1 <= abs(xa - xb) + abs(ya - yb) <= config.max_planar_length:
                pool.append(Link(a, b))
    return pool


def _brute_vertical(config):
    coords = _brute_coords(config)
    pool = []
    for a in range(config.num_tiles):
        for b in range(a + 1, config.num_tiles):
            (xa, ya, za), (xb, yb, zb) = coords[a], coords[b]
            if (xa, ya) == (xb, yb) and abs(za - zb) == 1:
                pool.append(Link(a, b))
    return pool


@pytest.mark.parametrize("config", PLATFORMS, ids=lambda c: c.name)
class TestSharedTables:
    def test_grid_is_shared(self, config):
        assert config.grid is config.grid

    def test_grid_is_shared_across_equal_platforms(self, config):
        assert replace(config).grid is config.grid

    def test_pools_are_shared_tuples(self, config):
        for pool_of in (candidate_planar_links, candidate_vertical_links):
            pool = pool_of(config)
            assert isinstance(pool, tuple)
            assert pool_of(config) is pool

    def test_planar_pool_matches_brute_force_order(self, config):
        assert list(candidate_planar_links(config)) == _brute_planar(config)

    def test_vertical_pool_matches_brute_force_order(self, config):
        assert list(candidate_vertical_links(config)) == _brute_vertical(config)

    def test_candidate_links_is_planar_then_vertical(self, config):
        assert list(candidate_links(config)) == _brute_planar(config) + _brute_vertical(config)

    def test_coordinates_match_brute_force(self, config):
        coords = [config.grid.coord(t) for t in config.grid.tiles()]
        assert [(c.x, c.y, c.z) for c in coords] == _brute_coords(config)

    def test_edge_tables_match_brute_force(self, config):
        n = config.n
        edge = [
            t
            for t, (x, y, _) in enumerate(_brute_coords(config))
            if x in (0, n - 1) or y in (0, n - 1)
        ]
        grid = config.grid
        assert grid.edge_tiles() == edge
        assert [t for t in grid.tiles() if grid.is_edge_tile(t)] == edge


class TestGridBounds:
    @pytest.mark.parametrize("tile_id", [-1, 27, 10_000])
    def test_coord_out_of_range_raises(self, tile_id):
        grid = Grid3D(3, 3)
        with pytest.raises(ValueError, match="out of range"):
            grid.coord(tile_id)

    @pytest.mark.parametrize("tile_id", [-1, 27])
    def test_is_edge_tile_out_of_range_raises(self, tile_id):
        with pytest.raises(ValueError, match="out of range"):
            Grid3D(3, 3).is_edge_tile(tile_id)

    def test_coord_accepts_numpy_ints(self):
        assert Grid3D(3, 3).coord(np.int64(13)) == TileCoord(1, 1, 1)

    def test_edge_list_is_a_fresh_copy(self):
        grid = Grid3D(3, 2)
        grid.edge_tiles().clear()
        assert len(grid.edge_tiles()) == 16


class TestPlatformIdentity:
    def test_touched_grid_does_not_change_equality_or_hash(self):
        touched = PlatformConfig.paper_4x4x4()
        touched.grid.coord(5)
        fresh = PlatformConfig.paper_4x4x4()
        assert touched == fresh
        assert hash(touched) == hash(fresh)
        assert "grid" not in vars(touched)

    def test_touched_platform_pickles_to_an_equal_platform(self):
        touched = PlatformConfig.small_3x3x3()
        touched.grid.edge_tiles()
        clone = pickle.loads(pickle.dumps(touched))
        assert clone == touched == PlatformConfig.small_3x3x3()
        assert hash(clone) == hash(touched)
        assert clone.name == touched.name
        assert clone.grid is touched.grid
