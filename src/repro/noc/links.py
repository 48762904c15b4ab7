"""Communication links of the 3D NoC.

Two kinds of links exist (Section III):

* **planar links** connect two routers on the same layer; their Manhattan
  length is limited to ``max_planar_length`` tile units;
* **vertical links** (TSVs) connect two routers in the same single-tile stack
  on adjacent layers; at most one TSV may exist between any vertical pair.

A link is stored as an ordered pair of tile ids ``(a, b)`` with ``a < b``.

The candidate pools are pure functions of the platform, so each platform's
pools are built once per process and shared: every caller receives the same
immutable tuple, in the same deterministic order (seeded draws index into
it, so the order is part of the reproducibility contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from repro.noc.geometry import Grid3D
from repro.noc.platform import PlatformConfig


class LinkKind(str, Enum):
    """Classification of a link."""

    PLANAR = "planar"
    VERTICAL = "vertical"


@dataclass(frozen=True, order=True)
class Link:
    """An undirected link between two tiles (stored with ``a < b``)."""

    a: int
    b: int

    def __post_init__(self) -> None:
        # Canonicalise to Python ints: numpy endpoints leak in from array
        # code, and anything keyed on a link's textual form (e.g. the
        # scenario RNG streams hashing str(design.key())) must not depend
        # on whether a caller passed np.int64(4) or 4.
        object.__setattr__(self, "a", int(self.a))
        object.__setattr__(self, "b", int(self.b))
        if self.a == self.b:
            raise ValueError("a link cannot connect a tile to itself")
        if self.a > self.b:
            raise ValueError("links must be stored with a < b; use Link.make()")

    @classmethod
    def make(cls, a: int, b: int) -> "Link":
        """Create a link with endpoints normalised to ``a < b``."""
        return cls(min(a, b), max(a, b))

    def endpoints(self) -> tuple[int, int]:
        """Return the two tile ids connected by this link."""
        return (self.a, self.b)

    def other(self, tile_id: int) -> int:
        """Return the opposite endpoint from ``tile_id``."""
        if tile_id == self.a:
            return self.b
        if tile_id == self.b:
            return self.a
        raise ValueError(f"tile {tile_id} is not an endpoint of {self}")


def link_kind(link: Link, grid: Grid3D) -> LinkKind:
    """Classify a link as planar (same layer) or vertical (same column)."""
    ca, cb = grid.coord(link.a), grid.coord(link.b)
    if ca.z == cb.z:
        return LinkKind.PLANAR
    if ca.x == cb.x and ca.y == cb.y:
        return LinkKind.VERTICAL
    raise ValueError(f"{link} is neither planar nor vertical (diagonal links are not allowed)")


def link_length(link: Link, grid: Grid3D) -> int:
    """Physical length of a link in tile units (``d_k`` of the energy model)."""
    return grid.manhattan_distance(link.a, link.b)


def link_lengths_array(links: Sequence[Link] | Iterable[Link], grid: Grid3D) -> np.ndarray:
    """Vectorized :func:`link_length` for a sequence of links (``d_k`` vector).

    The single vectorized twin of the scalar metric — batch consumers
    (routing tables, design statistics) call this so the length formula lives
    in one module.
    """
    links = list(links)
    num = len(links)
    ends_a = np.fromiter((link.a for link in links), dtype=np.int64, count=num)
    ends_b = np.fromiter((link.b for link in links), dtype=np.int64, count=num)
    xa, ya, za = grid.coords_arrays(ends_a)
    xb, yb, zb = grid.coords_arrays(ends_b)
    return (np.abs(xa - xb) + np.abs(ya - yb) + np.abs(za - zb)).astype(np.float64)


def is_feasible_link(link: Link, config: PlatformConfig) -> bool:
    """True when the link respects planar-length / vertical-adjacency rules."""
    grid = config.grid
    ca, cb = grid.coord(link.a), grid.coord(link.b)
    if ca.z == cb.z:
        return 1 <= abs(ca.x - cb.x) + abs(ca.y - cb.y) <= config.max_planar_length
    if ca.x == cb.x and ca.y == cb.y:
        return abs(ca.z - cb.z) == 1
    return False


@lru_cache(maxsize=None)
def candidate_planar_links(config: PlatformConfig) -> tuple[Link, ...]:
    """All feasible planar links for the platform, ordered by ``(a, b)``.

    Built once per platform; every call returns the same tuple.
    """
    grid = config.grid
    per_layer = grid.tiles_per_layer
    candidates: list[Link] = []
    for a in range(config.num_tiles):
        coord_a = grid.coord(a)
        layer_end = (coord_a.z + 1) * per_layer
        for b in range(a + 1, layer_end):
            if 1 <= coord_a.planar_distance(grid.coord(b)) <= config.max_planar_length:
                candidates.append(Link(a, b))
    return tuple(candidates)


@lru_cache(maxsize=None)
def candidate_vertical_links(config: PlatformConfig) -> tuple[Link, ...]:
    """All feasible vertical (TSV) links, i.e. every vertically adjacent tile pair.

    Built once per platform; every call returns the same tuple, ordered by
    ``(a, b)``.
    """
    grid = config.grid
    candidates: list[Link] = []
    for a in range(config.num_tiles):
        for b in grid.vertical_neighbors(a):
            if b > a:
                candidates.append(Link(a, b))
    return tuple(candidates)


def candidate_links(config: PlatformConfig) -> tuple[Link, ...]:
    """All feasible links (planar then vertical), in deterministic order."""
    return candidate_planar_links(config) + candidate_vertical_links(config)
