"""Geometry of the 3D tile grid.

The platform is an ``N x N x Y`` stack of tiles (Section III of the paper).
Tiles are addressed either by a linear index (``tile_id``) or by an
``(x, y, z)`` coordinate where ``z`` is the layer.  Layer ``z = 0`` is the
layer closest to the heat sink (the thermal model in
:mod:`repro.objectives.thermal` counts layers away from the sink starting
there).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np


@dataclass(frozen=True, order=True)
class TileCoord:
    """Coordinate of a tile inside the 3D grid."""

    x: int
    y: int
    z: int

    def planar_distance(self, other: "TileCoord") -> int:
        """Manhattan distance within a layer (ignores ``z``)."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def manhattan_distance(self, other: "TileCoord") -> int:
        """Full 3D Manhattan distance."""
        return self.planar_distance(other) + abs(self.z - other.z)

    def same_layer(self, other: "TileCoord") -> bool:
        """True when both tiles sit on the same layer."""
        return self.z == other.z


class Grid3D:
    """An ``n x n x layers`` grid of tiles with linear indexing helpers.

    The per-tile coordinates, layers, columns and edge flags are tabulated
    once at construction; :meth:`coord` and the edge queries are table
    lookups, and :attr:`tile_layers` / :attr:`tile_columns` let hot loops
    (link classification) compare plain ints.  :attr:`tile_distances` is
    the one table built lazily, on first use.  A grid is never mutated
    after construction, so one instance is shared by every user of a
    platform (see :attr:`PlatformConfig.grid
    <repro.noc.platform.PlatformConfig.grid>`).
    """

    def __init__(self, n: int, layers: int):
        if n <= 0:
            raise ValueError(f"grid dimension n must be > 0, got {n}")
        if layers <= 0:
            raise ValueError(f"layer count must be > 0, got {layers}")
        self.n = n
        self.layers = layers
        coords = []
        for tile_id in range(n * n * layers):
            z, rest = divmod(tile_id, n * n)
            y, x = divmod(rest, n)
            coords.append(TileCoord(x=x, y=y, z=z))
        self._coords: tuple[TileCoord, ...] = tuple(coords)
        #: Layer (``z``) of every tile, indexed by tile id.
        self.tile_layers: tuple[int, ...] = tuple(c.z for c in coords)
        #: Single-tile-stack (column) index of every tile, indexed by tile id.
        self.tile_columns: tuple[int, ...] = tuple(c.y * n + c.x for c in coords)
        self._edge_flags: tuple[bool, ...] = tuple(
            c.x == 0 or c.y == 0 or c.x == n - 1 or c.y == n - 1 for c in coords
        )
        self._edge_tiles = tuple(t for t, edge in enumerate(self._edge_flags) if edge)

    @property
    def tiles_per_layer(self) -> int:
        """Number of tiles on a single layer."""
        return self.n * self.n

    @property
    def num_tiles(self) -> int:
        """Total number of tiles in the stack."""
        return self.tiles_per_layer * self.layers

    @property
    def num_columns(self) -> int:
        """Number of single-tile stacks (columns) in the platform."""
        return self.tiles_per_layer

    def tile_id(self, coord: TileCoord) -> int:
        """Convert a coordinate to a linear tile index."""
        self._check_coord(coord)
        return coord.z * self.tiles_per_layer + coord.y * self.n + coord.x

    def coord(self, tile_id: int) -> TileCoord:
        """Convert a linear tile index to a coordinate."""
        if not 0 <= tile_id < len(self._coords):
            raise ValueError(f"tile_id {tile_id} out of range [0, {self.num_tiles})")
        return self._coords[tile_id]

    def coords_arrays(self, tile_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`coord`: ``(x, y, z)`` arrays for an array of tile ids.

        The single authoritative decode of the linear tile layout — vectorized
        callers (routing, thermal) use this instead of re-deriving the
        ``divmod`` arithmetic.
        """
        tile_ids = np.asarray(tile_ids, dtype=np.int64)
        z, rest = np.divmod(tile_ids, self.tiles_per_layer)
        y, x = np.divmod(rest, self.n)
        return x, y, z

    @cached_property
    def tile_distances(self) -> np.ndarray:
        """Read-only ``(num_tiles, num_tiles)`` float64 matrix of 3D Manhattan distances.

        Built on first use.  The entries are small integers, so sums and
        products over them carry the same bits as the same arithmetic over
        coordinate differences.
        """
        coords = np.stack(self.coords_arrays(np.arange(self.num_tiles)), axis=1)
        distances = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
        table = distances.astype(np.float64)
        table.flags.writeable = False
        return table

    def tiles(self) -> Iterator[int]:
        """Iterate over all tile ids."""
        return iter(range(self.num_tiles))

    def coords(self) -> Iterator[TileCoord]:
        """Iterate over all tile coordinates in id order."""
        return iter(self._coords)

    def is_edge_tile(self, tile_id: int) -> bool:
        """True when the tile is on the perimeter of its die.

        LLC tiles (which embed memory controllers) must be placed on edge
        tiles so they can interface with off-chip main memory (Section III
        constraints).
        """
        if not 0 <= tile_id < len(self._coords):
            raise ValueError(f"tile_id {tile_id} out of range [0, {self.num_tiles})")
        return self._edge_flags[tile_id]

    def edge_tiles(self) -> list[int]:
        """All tile ids located on a die perimeter."""
        return list(self._edge_tiles)

    def planar_distance(self, a: int, b: int) -> int:
        """Manhattan distance between two tiles within their layers."""
        return self.coord(a).planar_distance(self.coord(b))

    def manhattan_distance(self, a: int, b: int) -> int:
        """3D Manhattan distance between two tiles."""
        return self.coord(a).manhattan_distance(self.coord(b))

    def vertical_neighbors(self, tile_id: int) -> list[int]:
        """Tiles directly above/below ``tile_id`` (same column, adjacent layer)."""
        coord = self.coord(tile_id)
        neighbors = []
        for dz in (-1, 1):
            z = coord.z + dz
            if 0 <= z < self.layers:
                neighbors.append(self.tile_id(TileCoord(coord.x, coord.y, z)))
        return neighbors

    def planar_neighbors(self, tile_id: int) -> list[int]:
        """Tiles adjacent in the same layer (NSEW neighbours)."""
        coord = self.coord(tile_id)
        neighbors = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            x, y = coord.x + dx, coord.y + dy
            if 0 <= x < self.n and 0 <= y < self.n:
                neighbors.append(self.tile_id(TileCoord(x, y, coord.z)))
        return neighbors

    def _check_coord(self, coord: TileCoord) -> None:
        if not (0 <= coord.x < self.n and 0 <= coord.y < self.n and 0 <= coord.z < self.layers):
            raise ValueError(
                f"coordinate {coord} outside grid {self.n}x{self.n}x{self.layers}"
            )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Grid3D) and self.n == other.n and self.layers == other.layers

    def __hash__(self) -> int:
        return hash((self.n, self.layers))

    def __repr__(self) -> str:
        return f"Grid3D(n={self.n}, layers={self.layers})"
