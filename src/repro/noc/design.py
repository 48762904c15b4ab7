"""Design encoding: a PE placement plus a link placement.

A :class:`NocDesign` is one point of the design space explored by MOELA and
the baseline optimisers.  It consists of

* ``placement`` — an array of length ``num_tiles`` where ``placement[t]`` is
  the logical PE id hosted by tile ``t`` (a permutation of ``0..A-1``), and
* ``links`` — the set of communication links, stored as a sorted tuple of
  :class:`~repro.noc.links.Link`.

Designs are immutable value objects: move operators and crossover return new
designs.  They hash on their canonical encoding so evaluators can cache
objective vectors.

Move provenance
---------------
Move operators and crossover additionally *annotate* the designs they return
with a :class:`MoveDelta` — a structured record of how the child differs from
its parent (move kind, links added/removed, tiles swapped, and the parent's
link set).  The annotation rides outside the design's identity: it does not
participate in equality, hashing or serialisation, so two designs reached by
different moves still compare equal.  The routing engine
(:class:`repro.noc.routing_engine.RoutingEngine`) consumes the annotation as a
*hint* — placement-only deltas reuse the parent's routing tables wholesale and
link deltas trigger an incremental repair — and never depends on it for
correctness: a missing or stale delta only costs a fresh table build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.noc.geometry import Grid3D
from repro.noc.links import Link, LinkKind, link_ends, link_kind, link_lengths_array
from repro.noc.platform import PEType, PlatformConfig


@dataclass(frozen=True)
class NocDesign:
    """One candidate 3D NoC design (tile placement + link placement)."""

    placement: tuple[int, ...]
    links: tuple[Link, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "placement", tuple(int(p) for p in self.placement))
        object.__setattr__(self, "links", tuple(sorted(self.links)))

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_arrays(
        cls, placement: Sequence[int], links: Iterable[tuple[int, int] | Link]
    ) -> "NocDesign":
        """Build a design from a placement sequence and link endpoint pairs.

        Endpoints must be integers (Python or numpy); a float or string
        endpoint raises :class:`TypeError` instead of being truncated.
        """
        normalized = tuple(
            link if isinstance(link, Link) else Link.make(link[0], link[1]) for link in links
        )
        return cls(placement=tuple(int(p) for p in placement), links=normalized)

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    @property
    def num_tiles(self) -> int:
        """Number of tiles in the design."""
        return len(self.placement)

    @property
    def num_links(self) -> int:
        """Number of links in the design."""
        return len(self.links)

    def pe_at(self, tile_id: int) -> int:
        """Logical PE id hosted by ``tile_id``."""
        return self.placement[tile_id]

    def tile_of(self, pe_id: int) -> int:
        """Tile hosting logical PE ``pe_id``."""
        return self.tile_of_pe()[pe_id]

    def tile_of_pe(self) -> np.ndarray:
        """Inverse placement: ``tile_of_pe()[pe] -> tile``."""
        inverse = np.empty(self.num_tiles, dtype=np.int64)
        inverse[np.asarray(self.placement, dtype=np.int64)] = np.arange(self.num_tiles)
        return inverse

    def placement_array(self) -> np.ndarray:
        """Placement as a numpy array (tile -> PE)."""
        return np.asarray(self.placement, dtype=np.int64)

    def link_set(self) -> frozenset[Link]:
        """The links as a frozen set for membership tests."""
        return frozenset(self.links)

    def adjacency(self) -> dict[int, list[int]]:
        """Adjacency lists over tiles induced by the link placement."""
        adj: dict[int, list[int]] = {t: [] for t in range(self.num_tiles)}
        for link in self.links:
            adj[link.a].append(link.b)
            adj[link.b].append(link.a)
        return adj

    def degrees(self) -> np.ndarray:
        """Router degree (number of attached links) for every tile."""
        degrees = np.bincount(link_ends(self.links).ravel(), minlength=self.num_tiles)
        if degrees.size > self.num_tiles:
            raise IndexError(f"a link endpoint lies outside the {self.num_tiles} placed tiles")
        return degrees

    def links_by_kind(self, grid: Grid3D) -> dict[LinkKind, list[Link]]:
        """Partition the links into planar and vertical groups."""
        partition: dict[LinkKind, list[Link]] = {LinkKind.PLANAR: [], LinkKind.VERTICAL: []}
        for link in self.links:
            partition[link_kind(link, grid)].append(link)
        return partition

    def link_lengths(self, grid: Grid3D) -> np.ndarray:
        """Physical length of every link (``d_k``), in link order."""
        return link_lengths_array(self.links, grid)

    def tiles_of_type(self, config: PlatformConfig, pe_type: PEType) -> list[int]:
        """Tiles hosting PEs of the given type."""
        return [t for t, pe in enumerate(self.placement) if config.pe_type(pe) is pe_type]

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def key(self) -> tuple:
        """Canonical hashable key for caching objective evaluations."""
        return (self.placement, self.links)

    def __hash__(self) -> int:
        return hash(self.key())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NocDesign) and self.key() == other.key()

    def __repr__(self) -> str:
        return f"NocDesign(num_tiles={self.num_tiles}, num_links={self.num_links})"


@dataclass(frozen=True)
class MoveDelta:
    """Structured difference between a child design and the parent it came from.

    ``parent_links`` is the parent's canonical (sorted) link tuple — exactly
    the topology key the routing engine caches tables under, so a consumer can
    look the parent's tables up without holding the parent design alive.
    """

    kind: str
    links_added: tuple[Link, ...] = ()
    links_removed: tuple[Link, ...] = ()
    tiles_swapped: "tuple[int, int] | None" = None
    parent_links: tuple[Link, ...] = ()

    @classmethod
    def between(cls, parent: "NocDesign", child: "NocDesign", kind: str) -> "MoveDelta":
        """Compute the link-set delta between two designs (for composite moves).

        Used by multi-move mutation and crossover, where the child is not one
        elementary move away from the parent: the link differences are derived
        from the encodings instead of accumulated move by move.
        """
        parent_set = frozenset(parent.links)
        child_set = frozenset(child.links)
        return cls(
            kind=kind,
            links_added=tuple(sorted(child_set - parent_set)),
            links_removed=tuple(sorted(parent_set - child_set)),
            tiles_swapped=None,
            parent_links=parent.links,
        )


def annotate_move(child: NocDesign, delta: MoveDelta) -> NocDesign:
    """Attach a :class:`MoveDelta` to a freshly created design and return it.

    The annotation is stored outside the frozen dataclass fields, so identity
    (equality, hashing, ``key()``) and JSON serialisation are unaffected.
    Only annotate designs you just created — annotating a shared design would
    overwrite its provenance.
    """
    # Sanctioned frozen-bypass: the annotation rides outside the design's
    # identity and is only ever attached to a design this call site just
    # created (see the docstring) — the one blessed exception to REP004.
    object.__setattr__(child, "move_delta", delta)  # repro: allow[REP004]
    return child


def move_delta_of(design: NocDesign) -> "MoveDelta | None":
    """The :class:`MoveDelta` a move operator attached to ``design``, if any."""
    return getattr(design, "move_delta", None)
