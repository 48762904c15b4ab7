"""Communication links of the 3D NoC.

Two kinds of links exist (Section III):

* **planar links** connect two routers on the same layer; their Manhattan
  length is limited to ``max_planar_length`` tile units;
* **vertical links** (TSVs) connect two routers in the same single-tile stack
  on adjacent layers; at most one TSV may exist between any vertical pair.

A link is stored as an ordered pair of tile ids ``(a, b)`` with ``a < b``;
:class:`Link` is a validating tuple subclass, so it hashes, compares and
sorts exactly like that pair.

The candidate pools are pure functions of the platform, so each platform's
pools are built once per process and shared: every caller receives the same
immutable tuple, in the same deterministic order (seeded draws index into
it, so the order is part of the reproducibility contract).
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache
from itertools import chain
from operator import index
from typing import Iterable, Sequence

import numpy as np

from repro.noc.geometry import Grid3D
from repro.noc.platform import PlatformConfig


class LinkKind(str, Enum):
    """Classification of a link."""

    PLANAR = "planar"
    VERTICAL = "vertical"


class Link(namedtuple("Link", "a b")):
    """An undirected link between two tiles (stored with ``a < b``).

    A validating ``(a, b)`` tuple: hashing, equality and ordering are the
    plain tuple operations (they run in C on every set lookup and design
    sort), so a link equals, hashes and sorts like its endpoint pair —
    ``Link(0, 1) == (0, 1)``.  Endpoints go through :func:`operator.index`:
    numpy integers become Python ints (anything keyed on a link's textual
    form, e.g. the scenario RNG streams hashing ``str(design.key())``, must
    not depend on whether a caller passed ``np.int64(4)`` or ``4``), while
    floats and strings raise :class:`TypeError`.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "Link":
        a, b = index(a), index(b)
        if a == b:
            raise ValueError("a link cannot connect a tile to itself")
        if a > b:
            raise ValueError("links must be stored with a < b; use Link.make()")
        return tuple.__new__(cls, (a, b))

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


def _check_in_grid(link: Link, num_tiles: int) -> None:
    # ``a < b`` holds for every Link, so the two outer checks cover both
    # endpoints — and keep negative ids from wrapping in tuple lookups.
    if link[0] < 0 or link[1] >= num_tiles:
        raise ValueError(f"{link} references a tile id out of range [0, {num_tiles})")


def link_kind(link: Link, grid: Grid3D) -> LinkKind:
    """Classify a link as planar (same layer) or vertical (same column)."""
    a, b = link
    layers = grid.tile_layers
    if a < 0 or b >= len(layers):
        _check_in_grid(link, len(layers))
    if layers[a] == layers[b]:
        return LinkKind.PLANAR
    if grid.tile_columns[a] == grid.tile_columns[b]:
        return LinkKind.VERTICAL
    raise ValueError(f"{link} is neither planar nor vertical (diagonal links are not allowed)")


def link_length(link: Link, grid: Grid3D) -> int:
    """Physical length of a link in tile units (``d_k`` of the energy model)."""
    return grid.manhattan_distance(link.a, link.b)


def link_ends(links: Sequence[Link]) -> np.ndarray:
    """``(len(links), 2)`` int64 array of the links' ``(a, b)`` endpoints.

    Flattens the endpoint tuples through one C-level iterator; ``np.array``
    over a sequence of tuple subclasses is several times slower.
    """
    flat = np.fromiter(chain.from_iterable(links), dtype=np.int64, count=2 * len(links))
    return flat.reshape(-1, 2)


def link_lengths_array(links: Sequence[Link] | Iterable[Link], grid: Grid3D) -> np.ndarray:
    """Vectorized :func:`link_length` for a sequence of links (``d_k`` vector).

    The single vectorized twin of the scalar metric — batch consumers
    (routing tables, design statistics) call this so the length formula lives
    in one module.
    """
    ends = link_ends(tuple(links))
    xa, ya, za = grid.coords_arrays(ends[:, 0])
    xb, yb, zb = grid.coords_arrays(ends[:, 1])
    return (np.abs(xa - xb) + np.abs(ya - yb) + np.abs(za - zb)).astype(np.float64)


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


@lru_cache(maxsize=None)
def feasible_link_set(config: PlatformConfig) -> frozenset[Link]:
    """Every feasible link of the platform, for O(1) membership tests.

    Built once per platform.  Loops over many links fetch it once and test
    ``link in feasible`` directly; :func:`is_feasible_link` is the checked
    single-link form.
    """
    return frozenset(candidate_links(config))


def is_feasible_link(link: Link, config: PlatformConfig) -> bool:
    """True when the link respects planar-length / vertical-adjacency rules.

    The candidate pools enumerate exactly the feasible links, so the test is
    one set lookup; ids outside the grid raise :class:`ValueError`.
    """
    if link in feasible_link_set(config):
        return True
    _check_in_grid(link, config.num_tiles)
    return False
