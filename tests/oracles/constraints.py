"""The scalar-draw randomised-Prim loop the bulk-drawn one replaced.

``repro.noc.constraints.random_link_placement`` draws every frontier index
through :class:`repro.utils.rng.BulkIntegers`, tracks the tree in a list of
flags and classifies links by the grid's layer table.  The original loop,
one ``rng.integers`` call per frontier pop, lives on here, verbatim apart
from its name, as an oracle: ``tests/noc/test_link_placement.py`` checks
that both return the same links and leave the generator in the same state,
and ``benchmarks/bench_components.py`` times it as the baseline of the
placement speed gate.
"""

from __future__ import annotations

from repro.noc.constraints import _candidates_by_endpoint
from repro.noc.links import (
    Link,
    LinkKind,
    candidate_planar_links,
    candidate_vertical_links,
    link_kind,
)
from repro.noc.platform import PlatformConfig
from repro.utils.rng import RngLike, ensure_rng


def random_link_placement_reference(config: PlatformConfig, rng: RngLike = None) -> tuple[Link, ...]:
    """Generate a random feasible link placement.

    The generator first grows a random spanning tree over all tiles (which
    guarantees connectivity), then fills the remaining planar/vertical budgets
    with random unused candidate links, always respecting the router-degree
    cap.
    """
    rng = ensure_rng(rng)
    grid = config.grid
    num_tiles = config.num_tiles
    max_degree = config.max_router_degree
    planar_candidates = candidate_planar_links(config)
    vertical_candidates = candidate_vertical_links(config)
    by_endpoint = _candidates_by_endpoint(config)

    # Degree caps can occasionally starve the budget fill; retry with a
    # different spanning tree rather than returning an infeasible design.
    # The retry is a loop (not recursion) so tightly-budgeted big platforms
    # cannot overflow the interpreter stack before a feasible draw lands.
    while True:
        degrees = [0] * num_tiles
        chosen: set[Link] = set()
        planar_used = 0
        vertical_used = 0

        # -- random spanning tree (randomised Prim) --------------------- #
        root = int(rng.integers(num_tiles))
        in_tree = {root}
        frontier: list[Link] = list(by_endpoint[root])
        while len(in_tree) < num_tiles:
            if not frontier:
                raise RuntimeError("candidate link set cannot connect all tiles")
            idx = int(rng.integers(len(frontier)))
            link = frontier.pop(idx)
            a, b = link
            inside_a = a in in_tree
            if inside_a == (b in in_tree):
                continue
            if degrees[a] >= max_degree or degrees[b] >= max_degree:
                continue
            planar = link_kind(link, grid) is LinkKind.PLANAR
            if planar and planar_used >= config.num_planar_links:
                continue
            if not planar and vertical_used >= config.num_vertical_links:
                continue
            chosen.add(link)
            degrees[a] += 1
            degrees[b] += 1
            if planar:
                planar_used += 1
            else:
                vertical_used += 1
            new_node = b if inside_a else a
            in_tree.add(new_node)
            frontier.extend(by_endpoint[new_node])

        # -- fill the remaining budgets ---------------------------------- #
        def fill(candidates: tuple[Link, ...], remaining: int) -> int:
            added = 0
            for idx in rng.permutation(len(candidates)).tolist():
                if added >= remaining:
                    break
                link = candidates[idx]
                if link in chosen:
                    continue
                a, b = link
                if degrees[a] >= max_degree or degrees[b] >= max_degree:
                    continue
                chosen.add(link)
                degrees[a] += 1
                degrees[b] += 1
                added += 1
            return added

        planar_used += fill(planar_candidates, config.num_planar_links - planar_used)
        vertical_used += fill(vertical_candidates, config.num_vertical_links - vertical_used)

        if planar_used == config.num_planar_links and vertical_used == config.num_vertical_links:
            return tuple(sorted(chosen))
