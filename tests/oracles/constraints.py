"""Retired link-generation and link-repair code, kept as oracles.

``repro.noc.constraints.random_link_placement`` draws every frontier index
through :class:`repro.utils.rng.BulkIntegers`, tracks the tree in a list of
flags and classifies links by the grid's layer table.  The original loop,
one ``rng.integers`` call per frontier pop, lives on here, verbatim apart
from its name, as an oracle: ``tests/noc/test_link_placement.py`` checks
that both return the same links and leave the generator in the same state,
and ``benchmarks/bench_components.py`` times it as the baseline of the
placement speed gate.

Link repair now runs one ordered operator list in :mod:`repro.noc.repair`.
The former ``repair_links`` of :mod:`repro.noc.constraints` and its helpers
follow, verbatim apart from the entry point's name and the public name of
the component finder: ``tests/noc/test_link_pipeline.py`` checks that both
return the same links and leave the generator in the same state on
crossover children, and ``benchmarks/bench_components.py`` times the
oracle as the baseline of the 256-tile repair speed gate.  Its connectivity
step still runs the redundancy scan the operator list dropped.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.noc.constraints import (
    ConstraintChecker,
    _candidates_by_endpoint,
    connected_components,
    is_connected,
    random_link_placement,
)
from repro.noc.design import NocDesign
from repro.noc.links import (
    Link,
    LinkKind,
    candidate_planar_links,
    candidate_vertical_links,
    feasible_link_set,
    is_feasible_link,
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


def repair_links_reference(
    design: NocDesign, config: PlatformConfig, rng: RngLike = None
) -> NocDesign:
    """Repair a design whose link placement violates budgets/degree/connectivity.

    The repair keeps as many of the existing links as possible: infeasible
    links are dropped, budget overshoot is trimmed at random, missing links
    are added from the candidate pools, and connectivity is restored by
    swapping in bridging links.  The placement is left untouched.
    """
    rng = ensure_rng(rng)
    grid = config.grid
    checker = ConstraintChecker(config)

    feasible = feasible_link_set(config)
    kept: list[Link] = [link for link in sorted(set(design.links)) if link in feasible]
    planar: list[Link] = []
    vertical: list[Link] = []
    for link in kept:
        (planar if link_kind(link, grid) is LinkKind.PLANAR else vertical).append(link)

    def trim(links: list[Link], budget: int) -> list[Link]:
        if len(links) <= budget:
            return links
        order = rng.permutation(len(links))
        return [links[int(i)] for i in order[:budget]]

    planar = trim(planar, config.num_planar_links)
    vertical = trim(vertical, config.num_vertical_links)

    candidate = NocDesign(placement=design.placement, links=tuple(planar + vertical))
    candidate = _enforce_degree_cap(candidate, config, rng)
    candidate = _fill_budgets(candidate, config, rng)
    candidate = _restore_connectivity(candidate, config, rng)

    if not checker.is_feasible(candidate):
        # Fall back to a fresh random link placement; this keeps the repair
        # total-function even for pathological inputs.
        candidate = NocDesign(
            placement=design.placement, links=random_link_placement(config, rng)
        )
    return candidate


def _enforce_degree_cap(design: NocDesign, config: PlatformConfig, rng) -> NocDesign:
    links = list(design.links)
    degrees = design.degrees()
    over = [int(t) for t in np.flatnonzero(degrees > config.max_router_degree)]
    if not over:
        return design
    rng.shuffle(links)
    max_degree = config.max_router_degree
    kept: list[Link] = []
    counts = [0] * config.num_tiles
    for link in links:
        a, b = link
        if counts[a] >= max_degree or counts[b] >= max_degree:
            continue
        kept.append(link)
        counts[a] += 1
        counts[b] += 1
    return NocDesign(placement=design.placement, links=tuple(kept))


def _fill_budgets(design: NocDesign, config: PlatformConfig, rng) -> NocDesign:
    grid = config.grid
    max_degree = config.max_router_degree
    links = set(design.links)
    degrees = design.degrees().tolist()
    partition = design.links_by_kind(grid)
    needs = {
        LinkKind.PLANAR: config.num_planar_links - len(partition[LinkKind.PLANAR]),
        LinkKind.VERTICAL: config.num_vertical_links - len(partition[LinkKind.VERTICAL]),
    }
    pools = {
        LinkKind.PLANAR: candidate_planar_links(config),
        LinkKind.VERTICAL: candidate_vertical_links(config),
    }
    for kind, needed in needs.items():
        if needed <= 0:
            continue
        pool = pools[kind]
        added = 0
        for idx in rng.permutation(len(pool)).tolist():
            if added >= needed:
                break
            link = pool[idx]
            if link in links:
                continue
            a, b = link
            if degrees[a] >= max_degree or degrees[b] >= max_degree:
                continue
            links.add(link)
            degrees[a] += 1
            degrees[b] += 1
            added += 1
    return NocDesign(placement=design.placement, links=tuple(sorted(links)))


def _restore_connectivity(design: NocDesign, config: PlatformConfig, rng) -> NocDesign:
    """Swap links until the network is connected, preserving per-kind budgets."""
    grid = config.grid
    max_attempts = 4 * config.num_links
    current = design
    attempts = 0
    while not is_connected(current) and attempts < max_attempts:
        attempts += 1
        components = connected_components(current)
        # Pick the component containing tile 0 and try to bridge it to any other.
        main = components[0]
        others = [tile for comp in components[1:] for tile in comp]
        bridge = _find_bridge(main, others, current, config, rng)
        if bridge is None:
            break
        kind = link_kind(bridge, grid)
        removable = [
            link
            for link in current.links
            if link_kind(link, grid) is kind and _is_redundant(link, current)
        ]
        if not removable:
            removable = [link for link in current.links if link_kind(link, grid) is kind]
        victim = removable[int(rng.integers(len(removable)))]
        links = set(current.links)
        links.discard(victim)
        links.add(bridge)
        current = NocDesign(placement=current.placement, links=tuple(sorted(links)))
    return current


def _find_bridge(main: Iterable[int], others: Iterable[int], design: NocDesign, config: PlatformConfig, rng):
    degrees = design.degrees()
    main_list = list(main)
    other_list = list(others)
    rng.shuffle(main_list)
    rng.shuffle(other_list)
    for a in main_list:
        for b in other_list:
            link = Link.make(a, b)
            if not is_feasible_link(link, config):
                continue
            if degrees[a] >= config.max_router_degree or degrees[b] >= config.max_router_degree:
                continue
            return link
    return None


def _is_redundant(link: Link, design: NocDesign) -> bool:
    """True when removing ``link`` keeps the network connected."""
    remaining = tuple(l for l in design.links if l != link)
    trimmed = NocDesign(placement=design.placement, links=remaining)
    return is_connected(trimmed)
