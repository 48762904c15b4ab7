"""The frozen-dataclass ``Link`` and the geometric link predicates ``src`` replaced.

``repro.noc.links.Link`` is now a validating ``tuple`` subclass, and
``link_kind`` / ``is_feasible_link`` read per-grid tables and a per-platform
candidate set.  The originals live on here, verbatim apart from their names,
as oracles: ``tests/properties/test_link_contract.py`` checks that the tuple
``Link`` hashes, sorts, prints, pickles and iterates in sets exactly like the
dataclass, and ``tests/noc/test_link_predicates.py`` checks the table-driven
predicates against the coordinate rules on every tile pair of the presets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.geometry import Grid3D
from repro.noc.links import LinkKind
from repro.noc.platform import PlatformConfig


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


def geometric_link_kind(link, grid: Grid3D) -> LinkKind:
    """Classify a link as planar (same layer) or vertical (same column)."""
    ca, cb = grid.coord(link.a), grid.coord(link.b)
    if ca.z == cb.z:
        return LinkKind.PLANAR
    if ca.x == cb.x and ca.y == cb.y:
        return LinkKind.VERTICAL
    raise ValueError(f"{link} is neither planar nor vertical (diagonal links are not allowed)")


def geometric_is_feasible_link(link, config: PlatformConfig) -> bool:
    """True when the link respects planar-length / vertical-adjacency rules."""
    grid = config.grid
    ca, cb = grid.coord(link.a), grid.coord(link.b)
    if ca.z == cb.z:
        return 1 <= abs(ca.x - cb.x) + abs(ca.y - cb.y) <= config.max_planar_length
    if ca.x == cb.x and ca.y == cb.y:
        return abs(ca.z - cb.z) == 1
    return False
