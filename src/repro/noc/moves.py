"""Neighbourhood move operators used by local search and mutation.

A *move* produces a new feasible design that differs from its parent by a
small structural change.  The moves mirror those used by MOO-STAGE / MOOS and
the MOELA local search:

* ``swap_pe`` — exchange the PEs of two tiles (respecting the LLC edge rule);
* ``rewire_link`` — remove one link and add another of the same kind
  (respecting budgets, length, degree and connectivity);
* ``swap_llc`` — exchange an LLC with a non-LLC PE on another edge tile, which
  specifically perturbs memory-controller placement.

When the generator is given the application workload it additionally offers
*traffic-aware* moves, which the ML-guided local-search literature for this
problem relies on to make single-design perturbations productive:

* ``pull_communicating_pair`` — move one endpoint of a heavily communicating
  PE pair next to the other endpoint;
* ``rewire_link_toward_traffic`` — replace a link with a direct link between
  the tiles of a heavily communicating pair.

Each generator yields feasible designs only; infeasible candidates are
silently skipped.

Every returned design is annotated with a structured
:class:`~repro.noc.design.MoveDelta` (move kind, links added/removed, tiles
swapped, parent link set) so downstream consumers — most importantly the
route cache of :class:`repro.noc.routing_engine.RoutingEngine` — can tell
placement-only moves (full routing reuse) from link-mutating moves
(incremental routing repair) without diffing the encodings.
"""

from __future__ import annotations

import numpy as np

from repro.noc.constraints import ConstraintChecker, is_connected
from repro.noc.design import MoveDelta, NocDesign, annotate_move
from repro.noc.links import (
    Link,
    LinkKind,
    candidate_planar_links,
    candidate_vertical_links,
    is_feasible_link,
    link_kind,
)
from repro.noc.platform import PEType, PlatformConfig
from repro.utils.rng import RngLike, ensure_rng


class MoveGenerator:
    """Generates random feasible neighbour designs for a platform.

    Parameters
    ----------
    config:
        Platform configuration (constraints and candidate link pools).
    workload:
        Optional application workload; when given, traffic-aware moves are
        enabled and sampled alongside the blind structural moves.
    """

    def __init__(self, config: PlatformConfig, workload=None):
        self.config = config
        self.grid = config.grid
        self.checker = ConstraintChecker(config)
        self._planar_pool = candidate_planar_links(config)
        self._vertical_pool = candidate_vertical_links(config)
        self.workload = workload
        self._pair_sources: np.ndarray | None = None
        self._pair_targets: np.ndarray | None = None
        self._pair_probabilities: np.ndarray | None = None
        if workload is not None:
            self._prepare_traffic_pairs(workload)

    def _prepare_traffic_pairs(self, workload) -> None:
        traffic = np.asarray(workload.traffic, dtype=np.float64)
        symmetric = traffic + traffic.T
        sources, targets = np.nonzero(np.triu(symmetric, k=1))
        weights = symmetric[sources, targets]
        if len(weights) == 0 or weights.sum() <= 0:
            return
        self._pair_sources = sources
        self._pair_targets = targets
        self._pair_probabilities = weights / weights.sum()

    def _sample_traffic_pair(self, rng) -> "tuple[int, int] | None":
        if self._pair_probabilities is None:
            return None
        index = int(rng.choice(len(self._pair_probabilities), p=self._pair_probabilities))
        return int(self._pair_sources[index]), int(self._pair_targets[index])

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def random_neighbor(self, design: NocDesign, rng: RngLike = None) -> NocDesign:
        """Return one random feasible neighbour of ``design``.

        The move kind is chosen uniformly among the applicable kinds (with
        traffic-aware moves included when a workload is attached); the method
        retries internally and, as a last resort, returns the original design
        (which is always feasible).
        """
        rng = ensure_rng(rng)
        moves = [self.swap_pe, self.rewire_link, self.swap_llc]
        if self._pair_probabilities is not None:
            moves += [
                self.pull_communicating_pair,
                self.pull_communicating_pair,
                self.rewire_link_toward_traffic,
            ]
        for _ in range(16):
            move = moves[int(rng.integers(len(moves)))]
            candidate = move(design, rng)
            if candidate is not None:
                return candidate
        return design

    # ------------------------------------------------------------------ #
    # Individual moves
    # ------------------------------------------------------------------ #
    def swap_pe(self, design: NocDesign, rng: RngLike = None) -> NocDesign | None:
        """Swap the PEs hosted by two tiles, keeping LLCs on edge tiles."""
        rng = ensure_rng(rng)
        config = self.config
        for _ in range(16):
            t1, t2 = rng.choice(config.num_tiles, size=2, replace=False)
            t1, t2 = int(t1), int(t2)
            pe1, pe2 = design.pe_at(t1), design.pe_at(t2)
            if pe1 == pe2:
                continue
            type1, type2 = config.pe_type(pe1), config.pe_type(pe2)
            if type1 is type2:
                # Swapping two PEs of the same type yields an equivalent design
                # under a symmetric traffic model only if their traffic rows are
                # equal; they generally are not, so the swap is still useful.
                pass
            if type1 is PEType.LLC and not self.grid.is_edge_tile(t2):
                continue
            if type2 is PEType.LLC and not self.grid.is_edge_tile(t1):
                continue
            placement = list(design.placement)
            placement[t1], placement[t2] = placement[t2], placement[t1]
            return annotate_move(
                NocDesign(placement=tuple(placement), links=design.links),
                MoveDelta(kind="swap_pe", tiles_swapped=(t1, t2), parent_links=design.links),
            )
        return None

    def swap_llc(self, design: NocDesign, rng: RngLike = None) -> NocDesign | None:
        """Swap one LLC with a non-LLC PE hosted on another edge tile."""
        rng = ensure_rng(rng)
        config = self.config
        llc_tiles = design.tiles_of_type(config, PEType.LLC)
        edge_non_llc = [
            t
            for t in self.grid.edge_tiles()
            if config.pe_type(design.pe_at(t)) is not PEType.LLC
        ]
        if not llc_tiles or not edge_non_llc:
            return None
        t1 = llc_tiles[int(rng.integers(len(llc_tiles)))]
        t2 = edge_non_llc[int(rng.integers(len(edge_non_llc)))]
        placement = list(design.placement)
        placement[t1], placement[t2] = placement[t2], placement[t1]
        return annotate_move(
            NocDesign(placement=tuple(placement), links=design.links),
            MoveDelta(kind="swap_llc", tiles_swapped=(t1, t2), parent_links=design.links),
        )

    def rewire_link(self, design: NocDesign, rng: RngLike = None) -> NocDesign | None:
        """Replace one link with a different feasible link of the same kind."""
        rng = ensure_rng(rng)
        config = self.config
        links = set(design.links)
        degrees = design.degrees()
        order = rng.permutation(design.num_links)
        for idx in order[: min(12, design.num_links)]:
            victim = design.links[int(idx)]
            kind = link_kind(victim, self.grid)
            pool = self._planar_pool if kind is LinkKind.PLANAR else self._vertical_pool
            if len(pool) <= sum(1 for l in links if link_kind(l, self.grid) is kind):
                continue
            for _ in range(16):
                replacement = pool[int(rng.integers(len(pool)))]
                if replacement in links or replacement == victim:
                    continue
                new_degrees = degrees.copy()
                new_degrees[victim.a] -= 1
                new_degrees[victim.b] -= 1
                new_degrees[replacement.a] += 1
                new_degrees[replacement.b] += 1
                if (
                    new_degrees[replacement.a] > config.max_router_degree
                    or new_degrees[replacement.b] > config.max_router_degree
                ):
                    continue
                new_links = set(links)
                new_links.discard(victim)
                new_links.add(replacement)
                candidate = NocDesign(placement=design.placement, links=tuple(sorted(new_links)))
                if is_connected(candidate):
                    return annotate_move(
                        candidate,
                        MoveDelta(
                            kind="rewire_link",
                            links_added=(replacement,),
                            links_removed=(victim,),
                            parent_links=design.links,
                        ),
                    )
        return None

    # ------------------------------------------------------------------ #
    # Traffic-aware moves (require a workload)
    # ------------------------------------------------------------------ #
    def pull_communicating_pair(self, design: NocDesign, rng: RngLike = None) -> NocDesign | None:
        """Move one endpoint of a heavily communicating PE pair next to the other.

        A PE pair is sampled with probability proportional to its traffic; the
        second PE is swapped onto a tile adjacent to the first PE's tile,
        shortening the pair's route while keeping the placement a permutation
        and LLCs on edge tiles.
        """
        rng = ensure_rng(rng)
        pair = self._sample_traffic_pair(rng)
        if pair is None:
            return None
        config = self.config
        grid = self.grid
        for _ in range(8):
            anchor_pe, moving_pe = pair if rng.random() < 0.5 else (pair[1], pair[0])
            anchor_tile = design.tile_of(anchor_pe)
            moving_tile = design.tile_of(moving_pe)
            if grid.manhattan_distance(anchor_tile, moving_tile) <= 1:
                pair = self._sample_traffic_pair(rng)
                if pair is None:
                    return None
                continue
            targets = grid.planar_neighbors(anchor_tile) + grid.vertical_neighbors(anchor_tile)
            rng.shuffle(targets)
            for target in targets:
                if target == moving_tile:
                    break
                displaced_pe = design.pe_at(target)
                if displaced_pe == anchor_pe:
                    continue
                moving_is_llc = config.pe_type(moving_pe) is PEType.LLC
                displaced_is_llc = config.pe_type(displaced_pe) is PEType.LLC
                if moving_is_llc and not grid.is_edge_tile(target):
                    continue
                if displaced_is_llc and not grid.is_edge_tile(moving_tile):
                    continue
                placement = list(design.placement)
                placement[target], placement[moving_tile] = placement[moving_tile], placement[target]
                return annotate_move(
                    NocDesign(placement=tuple(placement), links=design.links),
                    MoveDelta(
                        kind="pull_communicating_pair",
                        tiles_swapped=(target, moving_tile),
                        parent_links=design.links,
                    ),
                )
            pair = self._sample_traffic_pair(rng)
            if pair is None:
                return None
        return None

    def rewire_link_toward_traffic(self, design: NocDesign, rng: RngLike = None) -> NocDesign | None:
        """Replace a link with a direct link between a heavily communicating pair's tiles."""
        rng = ensure_rng(rng)
        config = self.config
        grid = self.grid
        degrees = design.degrees()
        links = design.link_set()
        for _ in range(8):
            pair = self._sample_traffic_pair(rng)
            if pair is None:
                return None
            tile_a = design.tile_of(pair[0])
            tile_b = design.tile_of(pair[1])
            if tile_a == tile_b:
                continue
            new_link = Link.make(tile_a, tile_b)
            if new_link in links or not is_feasible_link(new_link, config):
                continue
            if (
                degrees[new_link.a] >= config.max_router_degree
                or degrees[new_link.b] >= config.max_router_degree
            ):
                continue
            kind = link_kind(new_link, grid)
            same_kind = [l for l in design.links if link_kind(l, grid) is kind and l != new_link]
            order = rng.permutation(len(same_kind))
            for idx in order[: min(12, len(same_kind))]:
                victim = same_kind[int(idx)]
                new_links = set(links)
                new_links.discard(victim)
                new_links.add(new_link)
                candidate = NocDesign(placement=design.placement, links=tuple(sorted(new_links)))
                if is_connected(candidate):
                    return annotate_move(
                        candidate,
                        MoveDelta(
                            kind="rewire_link_toward_traffic",
                            links_added=(new_link,),
                            links_removed=(victim,),
                            parent_links=design.links,
                        ),
                    )
        return None


def mutate(
    design: NocDesign,
    config: PlatformConfig,
    rng: RngLike = None,
    strength: int = 1,
    generator: "MoveGenerator | None" = None,
) -> NocDesign:
    """Apply ``strength`` random moves to ``design`` (the EA mutation operator).

    Multi-move chains are re-annotated with one composite delta against the
    *original* design, so the routing engine repairs from a topology it has
    actually cached rather than from an unseen intermediate design.  Pass a
    ``generator`` to reuse a prepared :class:`MoveGenerator` (e.g. one with
    traffic-aware moves enabled) instead of building a blind one per call.
    """
    rng = ensure_rng(rng)
    generator = generator if generator is not None else MoveGenerator(config)
    current = design
    for _ in range(max(1, strength)):
        current = generator.random_neighbor(current, rng)
    if current is not design and max(1, strength) > 1:
        current = annotate_move(current, MoveDelta.between(design, current, "mutate"))
    return current
