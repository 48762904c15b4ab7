"""Tests for the 3D tile grid geometry."""

import numpy as np
import pytest

from repro.noc.geometry import Grid3D, TileCoord


class TestTileCoord:
    def test_planar_distance_ignores_layer(self):
        a = TileCoord(0, 0, 0)
        b = TileCoord(2, 3, 3)
        assert a.planar_distance(b) == 5

    def test_manhattan_distance_includes_layer(self):
        a = TileCoord(0, 0, 0)
        b = TileCoord(2, 3, 3)
        assert a.manhattan_distance(b) == 8

    def test_same_layer(self):
        assert TileCoord(1, 2, 0).same_layer(TileCoord(3, 0, 0))
        assert not TileCoord(1, 2, 0).same_layer(TileCoord(1, 2, 1))


class TestGrid3D:
    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Grid3D(0, 3)
        with pytest.raises(ValueError):
            Grid3D(3, 0)

    def test_tile_counts(self):
        grid = Grid3D(3, 3)
        assert grid.num_tiles == 27
        assert grid.tiles_per_layer == 9
        assert grid.num_columns == 9

    @pytest.mark.parametrize("n, layers", [(1, 1), (2, 2), (3, 1), (4, 3)])
    def test_tile_distances_table(self, n, layers):
        grid = Grid3D(n, layers)
        table = grid.tile_distances
        assert table.shape == (grid.num_tiles, grid.num_tiles)
        assert table.dtype == np.float64
        for a in range(grid.num_tiles):
            for b in range(grid.num_tiles):
                assert table[a, b] == grid.manhattan_distance(a, b)
        assert grid.tile_distances is table  # built once

    def test_tile_distances_are_read_only(self):
        with pytest.raises(ValueError):
            Grid3D(2, 2).tile_distances[0, 1] = 5.0

    def test_tile_id_round_trip(self):
        grid = Grid3D(4, 4)
        for tile_id in range(grid.num_tiles):
            assert grid.tile_id(grid.coord(tile_id)) == tile_id

    def test_tile_id_ordering_is_layer_major(self):
        grid = Grid3D(3, 2)
        assert grid.tile_id(TileCoord(0, 0, 0)) == 0
        assert grid.tile_id(TileCoord(2, 0, 0)) == 2
        assert grid.tile_id(TileCoord(0, 1, 0)) == 3
        assert grid.tile_id(TileCoord(0, 0, 1)) == 9

    def test_out_of_range_rejected(self):
        grid = Grid3D(2, 2)
        with pytest.raises(ValueError):
            grid.coord(8)
        with pytest.raises(ValueError):
            grid.tile_id(TileCoord(2, 0, 0))

    def test_column_and_layer(self):
        grid = Grid3D(3, 3)
        tile = grid.tile_id(TileCoord(1, 2, 2))
        assert grid.tile_columns[tile] == 2 * 3 + 1
        assert grid.tile_layers[tile] == 2

    def test_edge_tiles_in_3x3(self):
        grid = Grid3D(3, 2)
        edge = set(grid.edge_tiles())
        interior = {t for t in grid.tiles() if not grid.is_edge_tile(t)}
        assert edge | interior == set(range(grid.num_tiles))
        assert edge & interior == set()
        # The centre tile of every 3x3 layer is interior.
        assert grid.tile_id(TileCoord(1, 1, 0)) in interior
        assert grid.tile_id(TileCoord(1, 1, 1)) in interior
        assert len(interior) == 2

    def test_all_tiles_are_edge_in_2x2(self):
        grid = Grid3D(2, 2)
        assert len(grid.edge_tiles()) == grid.num_tiles

    def test_planar_neighbors_center(self):
        grid = Grid3D(3, 1)
        center = grid.tile_id(TileCoord(1, 1, 0))
        assert len(grid.planar_neighbors(center)) == 4

    def test_planar_neighbors_corner(self):
        grid = Grid3D(3, 1)
        corner = grid.tile_id(TileCoord(0, 0, 0))
        assert len(grid.planar_neighbors(corner)) == 2

    def test_vertical_neighbors(self):
        grid = Grid3D(2, 3)
        bottom = grid.tile_id(TileCoord(0, 0, 0))
        middle = grid.tile_id(TileCoord(0, 0, 1))
        top = grid.tile_id(TileCoord(0, 0, 2))
        assert grid.vertical_neighbors(bottom) == [middle]
        assert set(grid.vertical_neighbors(middle)) == {bottom, top}
        assert grid.vertical_neighbors(top) == [middle]

    def test_single_layer_has_no_vertical_neighbors(self):
        grid = Grid3D(3, 1)
        assert all(grid.vertical_neighbors(t) == [] for t in grid.tiles())

    def test_distances(self):
        grid = Grid3D(3, 3)
        a = grid.tile_id(TileCoord(0, 0, 0))
        b = grid.tile_id(TileCoord(2, 2, 2))
        assert grid.planar_distance(a, b) == 4
        assert grid.manhattan_distance(a, b) == 6

    def test_equality_and_hash(self):
        assert Grid3D(3, 2) == Grid3D(3, 2)
        assert Grid3D(3, 2) != Grid3D(2, 3)
        assert hash(Grid3D(3, 2)) == hash(Grid3D(3, 2))

    def test_coords_iteration_matches_ids(self):
        grid = Grid3D(2, 2)
        coords = list(grid.coords())
        assert len(coords) == grid.num_tiles
        assert [grid.tile_id(c) for c in coords] == list(range(grid.num_tiles))
