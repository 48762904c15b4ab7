"""Genetic crossover operator for NoC designs.

The decomposition-based EA step of MOELA generates an offspring from two
parent designs (Section IV.C).  The operator recombines the two encodings:

* **placement** — a uniform-style crossover over tiles: each tile inherits the
  PE of one parent when possible; conflicts (a PE already used) are resolved
  by a greedy completion that keeps LLCs on edge tiles;
* **links** — the offspring keeps links common to both parents, then fills the
  per-kind budgets by drawing from the union of the parents' remaining links
  before falling back to random candidates.

The resulting offspring is repaired (connectivity, budgets, degree) so the EA
always works with feasible designs.
"""

from __future__ import annotations

from repro.noc.design import MoveDelta, NocDesign, annotate_move
from repro.noc.links import LinkKind, link_kind
from repro.noc.platform import PEType, PlatformConfig
from repro.noc.repair import repair_links
from repro.utils.rng import RngLike, ensure_rng


def crossover_placement(
    parent_a: NocDesign, parent_b: NocDesign, config: PlatformConfig, rng: RngLike = None
) -> tuple[int, ...]:
    """Recombine two parent placements into a feasible child placement."""
    rng = ensure_rng(rng)
    grid = config.grid
    num_tiles = config.num_tiles
    child = [-1] * num_tiles
    used: set[int] = set()

    tile_order = rng.permutation(num_tiles)
    for tile in tile_order:
        tile = int(tile)
        first, second = (parent_a, parent_b) if rng.random() < 0.5 else (parent_b, parent_a)
        for parent in (first, second):
            pe = parent.pe_at(tile)
            if pe in used:
                continue
            if config.pe_type(pe) is PEType.LLC and not grid.is_edge_tile(tile):
                continue
            child[tile] = pe
            used.add(pe)
            break

    # Complete the permutation with the unused PEs, respecting the LLC rule.
    unused = [pe for pe in range(num_tiles) if pe not in used]
    rng.shuffle(unused)
    unused_llc = [pe for pe in unused if config.pe_type(pe) is PEType.LLC]
    unused_other = [pe for pe in unused if config.pe_type(pe) is not PEType.LLC]
    empty_edge = [t for t in range(num_tiles) if child[t] == -1 and grid.is_edge_tile(t)]
    empty_other = [t for t in range(num_tiles) if child[t] == -1 and not grid.is_edge_tile(t)]

    if len(unused_llc) > len(empty_edge):
        # Not enough empty edge tiles for the remaining LLCs: evict non-LLC PEs
        # from edge tiles to make room.
        needed = len(unused_llc) - len(empty_edge)
        evictable = [
            t
            for t in grid.edge_tiles()
            if child[t] != -1 and config.pe_type(child[t]) is not PEType.LLC
        ]
        rng.shuffle(evictable)
        for tile in evictable[:needed]:
            unused_other.append(child[tile])
            child[tile] = -1
            empty_edge.append(tile)

    for tile, pe in zip(empty_edge, unused_llc):
        child[tile] = pe
    leftover_edge = empty_edge[len(unused_llc):]
    remaining_tiles = leftover_edge + empty_other
    for tile, pe in zip(remaining_tiles, unused_other):
        child[tile] = pe
    return tuple(child)


def crossover_links(
    parent_a: NocDesign, parent_b: NocDesign, config: PlatformConfig, rng: RngLike = None
) -> tuple:
    """Recombine two parents' link placements (may require repair afterwards)."""
    rng = ensure_rng(rng)
    grid = config.grid
    set_a, set_b = parent_a.link_set(), parent_b.link_set()
    common = set_a & set_b
    exclusive = list((set_a | set_b) - common)
    rng.shuffle(exclusive)

    # Per-kind budgets and counts indexed by ``is planar`` (False, True).
    budgets = (config.num_vertical_links, config.num_planar_links)
    counts = [0, 0]
    max_degree = config.max_router_degree
    chosen = set()
    degrees = [0] * config.num_tiles

    def try_add(link) -> None:
        planar = link_kind(link, grid) is LinkKind.PLANAR
        if counts[planar] >= budgets[planar]:
            return
        a, b = link
        if degrees[a] >= max_degree or degrees[b] >= max_degree:
            return
        chosen.add(link)
        counts[planar] += 1
        degrees[a] += 1
        degrees[b] += 1

    for link in sorted(common):
        try_add(link)
    for link in exclusive:
        try_add(link)
    return tuple(sorted(chosen))


def crossover(
    parent_a: NocDesign, parent_b: NocDesign, config: PlatformConfig, rng: RngLike = None
) -> NocDesign:
    """Full crossover: recombine placements and links, then repair to feasibility.

    The offspring is annotated with a :class:`~repro.noc.design.MoveDelta`
    against whichever parent its link set is closer to, so the routing engine
    can repair that parent's cached tables instead of rebuilding from scratch.
    """
    rng = ensure_rng(rng)
    placement = crossover_placement(parent_a, parent_b, config, rng)
    links = crossover_links(parent_a, parent_b, config, rng)
    child = repair_links(NocDesign(placement=placement, links=links), config, rng)
    child_links = frozenset(child.links)
    diff_a = len(child_links.symmetric_difference(parent_a.links))
    diff_b = len(child_links.symmetric_difference(parent_b.links))
    closest = parent_a if diff_a <= diff_b else parent_b
    return annotate_move(child, MoveDelta.between(closest, child, "crossover"))
