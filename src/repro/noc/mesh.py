"""Reference 3D-mesh topology.

The paper allocates "the same number of planar links as an equivalent 3D
mesh"; the mesh is therefore both the natural starting topology and a useful
baseline design.  :func:`mesh_links` produces the canonical mesh link set and
:func:`mesh_design` a full design with a deterministic type-aware placement.
"""

from __future__ import annotations

from repro.noc.design import NocDesign
from repro.noc.links import Link, candidate_planar_links
from repro.noc.platform import PlatformConfig
from repro.utils.rng import RngLike


def mesh_links(config: PlatformConfig) -> tuple[Link, ...]:
    """Link set of the full 3D mesh (NSEW planar links + all vertical links).

    Raises ``ValueError`` if the platform's link budget cannot accommodate the
    full mesh (the paper's budgets are exactly the mesh counts).
    """
    grid = config.grid
    links: set[Link] = set()
    for tile_id in grid.tiles():
        for neighbor in grid.planar_neighbors(tile_id):
            links.add(Link.make(tile_id, neighbor))
        for neighbor in grid.vertical_neighbors(tile_id):
            links.add(Link.make(tile_id, neighbor))
    num_planar = sum(1 for l in links if grid.coord(l.a).same_layer(grid.coord(l.b)))
    num_vertical = len(links) - num_planar
    if num_planar > config.num_planar_links:
        raise ValueError(
            f"platform planar budget {config.num_planar_links} is smaller than the "
            f"mesh requirement {num_planar}"
        )
    if num_vertical > config.num_vertical_links:
        raise ValueError(
            f"platform vertical budget {config.num_vertical_links} is smaller than the "
            f"mesh requirement {num_vertical}"
        )
    return tuple(sorted(links))


def mesh_placement(config: PlatformConfig, rng: RngLike = None) -> tuple[int, ...]:
    """A deterministic (or lightly randomised) placement for the mesh design.

    LLCs are assigned to edge tiles spread across layers; CPUs are grouped on
    the layer closest to the sink (a common thermal-aware heuristic); GPUs
    fill the remaining tiles.  The placement is fully deterministic; ``rng`` is
    accepted for API compatibility and ignored.
    """
    grid = config.grid
    edge = grid.edge_tiles()
    llc_tiles = edge[:: max(1, len(edge) // config.num_llcs)][: config.num_llcs]
    if len(llc_tiles) < config.num_llcs:
        extra = [t for t in edge if t not in llc_tiles]
        llc_tiles = llc_tiles + extra[: config.num_llcs - len(llc_tiles)]
    llc_tiles_set = set(llc_tiles)
    other_tiles = [t for t in range(config.num_tiles) if t not in llc_tiles_set]
    placement = [0] * config.num_tiles
    for tile_id, pe_id in zip(sorted(llc_tiles_set), config.llc_ids):
        placement[tile_id] = int(pe_id)
    cpu_then_gpu = list(config.cpu_ids) + list(config.gpu_ids)
    for tile_id, pe_id in zip(other_tiles, cpu_then_gpu):
        placement[tile_id] = int(pe_id)
    return tuple(placement)


def mesh_design(config: PlatformConfig, rng: RngLike = None) -> NocDesign:
    """Full-mesh design with a deterministic type-aware placement.

    When the link budget exceeds the mesh requirement the remaining planar
    budget is filled with short express links chosen deterministically.
    """
    links = set(mesh_links(config))
    design = NocDesign(placement=mesh_placement(config, rng), links=tuple(sorted(links)))
    grid = config.grid
    planar_now = sum(1 for l in links if grid.coord(l.a).same_layer(grid.coord(l.b)))
    missing = config.num_planar_links - planar_now
    if missing > 0:
        degrees = design.degrees()
        for link in candidate_planar_links(config):
            if missing == 0:
                break
            if link in links:
                continue
            if degrees[link.a] >= config.max_router_degree or degrees[link.b] >= config.max_router_degree:
                continue
            links.add(link)
            degrees[link.a] += 1
            degrees[link.b] += 1
            missing -= 1
        design = NocDesign(placement=design.placement, links=tuple(sorted(links)))
    return design
