"""Retired routing-table builders, kept as oracles for the compact tables.

``RoutingTables`` used to hold its path incidences as CSR matrices: ``P``
(pair x link) and ``R`` (pair x router).  It now stores neither: link loads
are added up the route trees and the router-energy terms ``R @ ports`` and
route lengths ``P @ lengths`` are summed down them.  The builders live on
here:

* :func:`tree_link_loads` is a scalar walk over each source's route tree
  that adds in the same order as ``RoutingTables.link_loads``, so the two
  agree byte for byte;
* :func:`pair_link_incidence` is the retired route-order sweep that built
  ``P`` from the predecessor matrix, as a ``csr_matrix``, so tests can take
  ``P.T @ f`` (a cross-check at ``rtol=1e-12``: it sums in pair order) and
  ``P @ lengths`` with scipy;
* :func:`pair_tile_incidence` is the retired route-order sweep that built
  ``R`` from the predecessor matrix, and :func:`router_ports` its product
  with ``degrees + 1``;
* :func:`canonical_csr` is the sorted-index CSR builder the route-order
  rows replaced (``tests/noc/test_routing_route_order.py``);
* :func:`changed_route_pairs` compares two tables' tile paths pair by pair,
  the brute-force twin of the changed-pair set a repair re-sweeps;
* :func:`scipy_distances` is the retired all-pairs scipy Dijkstra that the
  integer Floyd–Warshall kernel and the in-place repair replaced.

:func:`route_tiles` and :func:`route_links` are the retired per-pair query
API (``RoutingTables.path_tiles`` / ``path_links``): one route at a time,
walked back from the destination over a table's predecessors, raising the
same ``ValueError`` on a disconnected pair.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.noc.links import Link, link_ends


def route_tiles(tables, src: int, dst: int) -> list[int]:
    """The ordered tiles (routers) of the route ``src -> dst``, endpoints included."""
    if src == dst:
        return [src]
    if not tables.reachable_matrix()[src, dst]:
        raise ValueError(f"no route from tile {src} to tile {dst}: network is disconnected")
    tiles = [dst]
    node = dst
    while node != src:
        node = int(tables._predecessors[src, node])
        if node < 0:
            raise ValueError(f"no route from tile {src} to tile {dst}")
        tiles.append(node)
    tiles.reverse()
    return tiles


def route_links(tables, src: int, dst: int) -> list[int]:
    """The ordered link ids of the route ``src -> dst`` (empty for a self pair).

    A table's links are sorted ``(a, b)`` tuples with ``a < b``, so a hop's
    link id is its endpoint pair's position among them.
    """
    tiles = route_tiles(tables, src, dst)
    return [bisect_left(tables.links, Link.make(a, b)) for a, b in zip(tiles[:-1], tiles[1:])]


def canonical_csr(rows: np.ndarray, cols: np.ndarray, num_rows: int, num_cols: int) -> csr_matrix:
    """Canonical (row-major, sorted-indices) CSR straight from entry lists.

    Bypasses the COO round trip: one lexsort puts the entries into
    canonical order, the index pointer comes from a bincount.  Canonical
    form matters beyond speed — a repaired table and a fresh build hold
    bit-identical arrays, so sparse products over them sum in the same
    order and produce bit-identical objective values.
    """
    # One combined scalar key sorts rows and columns together (cheaper
    # than a lexsort plus two gathers at this entry count).
    key = np.sort(rows * np.int64(num_cols) + cols)
    sorted_rows = key // num_cols
    sorted_cols = key % num_cols
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(sorted_rows, minlength=num_rows), out=indptr[1:])
    return csr_matrix(
        (np.ones(sorted_cols.size, dtype=np.float64), sorted_cols, indptr),
        shape=(num_rows, num_cols),
    )


def _route_order_csr(steps, num_rows: int, num_cols: int) -> csr_matrix:
    """0/1 CSR whose row ``r`` lists, in sweep order, the entries ``steps`` gave it.

    ``steps`` is a list of ``(rows, cols)`` chunks; chunk ``s`` holds entry
    ``s`` of each listed row, so entry ``s`` goes straight into slot
    ``indptr[row] + s`` and no sort is needed.
    """
    counts = np.zeros(num_rows, dtype=np.int64)
    for rows, _ in steps:
        counts[rows] += 1
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    for step, (rows, cols) in enumerate(steps):
        indices[indptr[rows] + step] = cols
    return csr_matrix(
        (np.ones(indices.size, dtype=np.float64), indices, indptr),
        shape=(num_rows, num_cols),
    )


def pair_link_incidence(tables) -> csr_matrix:
    """``P`` of shape ``(num_tiles**2, num_links)``: the retired route-order sweep.

    ``P[p, k] = 1`` iff the route of pair ``p`` traverses link ``k``.  One
    vectorized sweep over the predecessor matrix advances every route one
    hop per iteration, from the destination back to the source, so a row
    lists the last hop first.  Self and unreachable pairs have empty rows.
    """
    num_tiles = tables.num_tiles
    pairs = np.arange(num_tiles * num_tiles)
    src, dst = pairs // num_tiles, pairs % num_tiles
    edge_link = np.full((num_tiles, num_tiles), -1, dtype=np.int64)
    ends = link_ends(tables.links)
    edge_link[ends[:, 0], ends[:, 1]] = edge_link[ends[:, 1], ends[:, 0]] = np.arange(len(ends))
    steps = []
    cur = dst.copy()
    active = np.flatnonzero(tables.reachable_pairs() & (src != dst))
    while active.size:
        prev = tables._predecessors[src[active], cur[active]].astype(np.int64)
        steps.append((active, edge_link[prev, cur[active]]))
        cur[active] = prev
        active = active[prev != src[active]]
    return _route_order_csr(steps, pairs.size, tables.num_links)


def tree_link_loads(tables, pair_weights: np.ndarray) -> np.ndarray:
    """Link loads summed up each source's route tree, one pair at a time.

    Every routed pair ``(s, v)`` (reachable, ``s != v``) sits on level
    ``hops(s, v)`` of source ``s``'s predecessor tree.  Bottom-up from the
    deepest level of any tree, a pair's total is its own weight plus the sum
    of its children's totals, added in ascending tile order starting from
    ``0.0``; only the pairs on that deepest level keep their weight as is.
    The total of ``(s, v)`` is the weight routed over its last hop
    ``pred(v) -> v``, and the loads add the totals into each link level by
    level, then by source, then by ``v`` ascending.  That is the order in
    which ``RoutingTables.link_loads`` adds.
    """
    num_tiles = tables.num_tiles
    predecessors = tables._predecessors.tolist()
    reachable = tables.reachable_matrix().tolist()
    weights = np.asarray(pair_weights, dtype=np.float64).reshape(num_tiles, num_tiles).tolist()
    edge_link = {}
    for index, (a, b) in enumerate(link_ends(tables.links).tolist()):
        edge_link[(a, b)] = edge_link[(b, a)] = index

    # levels[s][k]: the tiles v on level k of source s's tree, ascending.
    levels: list[dict[int, list[int]]] = []
    for s in range(num_tiles):
        pred, depth, tree = predecessors[s], {s: 0}, {}
        for v in range(num_tiles):
            chain, node = [], v
            while node not in depth and reachable[s][node]:
                chain.append(node)
                node = pred[node]
            for node in reversed(chain):
                depth[node] = depth[pred[node]] + 1
        for v in range(num_tiles):
            if v != s and reachable[s][v]:
                tree.setdefault(depth[v], []).append(v)
        levels.append(tree)
    deepest = max((max(tree, default=0) for tree in levels), default=0)

    totals = []
    for s, tree in enumerate(levels):
        pred = predecessors[s]
        total = {v: weights[s][v] for nodes in tree.values() for v in nodes}
        for level in range(deepest, 1, -1):
            children: dict[int, float] = {}
            for v in tree.get(level, ()):
                children[pred[v]] = children.get(pred[v], 0.0) + total[v]
            for u in tree.get(level - 1, ()):
                total[u] = total[u] + children.get(u, 0.0)
        totals.append(total)

    loads = [0.0] * tables.num_links
    for level in range(1, deepest + 1):
        for s, tree in enumerate(levels):
            for v in tree.get(level, ()):
                loads[edge_link[(predecessors[s][v], v)]] += totals[s][v]
    return np.array(loads, dtype=np.float64)


def pair_tile_incidence(tables) -> csr_matrix:
    """``R`` of shape ``(num_tiles**2, num_tiles)``: the retired route-order builder.

    ``R[p, t] = 1`` iff router ``t`` lies on the route of pair ``p``,
    endpoints included (a self pair visits only its own router; an
    unreachable pair has an empty row).  One vectorized sweep over the
    predecessor matrix writes step ``s`` of every route into slot ``s`` of
    its row, so a row reads ``dst, ..., src``.
    """
    num_tiles = tables.num_tiles
    pairs = np.arange(num_tiles * num_tiles)
    src, dst = pairs // num_tiles, pairs % num_tiles
    reachable = tables.reachable_pairs()
    steps = [(pairs[reachable], dst[reachable])]
    cur = dst.copy()
    active = np.flatnonzero(reachable & (src != dst))
    while active.size:
        prev = tables._predecessors[src[active], cur[active]].astype(np.int64)
        steps.append((active, prev))
        cur[active] = prev
        active = active[prev != src[active]]
    return _route_order_csr(steps, pairs.size, num_tiles)


def router_ports(tables) -> np.ndarray:
    """The retired router-energy sums ``R @ (degrees + 1)`` (float64)."""
    degrees = np.bincount(link_ends(tables.links).ravel(), minlength=tables.num_tiles)
    return pair_tile_incidence(tables) @ (degrees.astype(np.float64) + 1.0)


def changed_route_pairs(parent, child) -> np.ndarray:
    """Flat pairs ``src * num_tiles + dst`` whose tile path differs, by brute force.

    Walks every pair's route in both tables with :func:`route_tiles`; a
    pair that is reachable in only one of them counts as changed, one that
    is unreachable in both does not.
    """
    num_tiles = parent.num_tiles

    def route(tables, src, dst):
        return route_tiles(tables, src, dst) if tables.reachable_matrix()[src, dst] else None

    return np.array(
        [
            src * num_tiles + dst
            for src in range(num_tiles)
            for dst in range(num_tiles)
            if route(parent, src, dst) != route(child, src, dst)
        ],
        dtype=np.int64,
    )


def scipy_distances(tables) -> np.ndarray:
    """All-pairs distances of a table's links by scipy Dijkstra, cast to float32.

    Link weights are ``1 + epsilon * length``; ``inf`` marks an unreachable
    pair.  Every path sum is exact in float64, so the cast gives the bytes a
    table stores in ``_distance``.  A repeated link is kept once: the sparse
    constructor would add up its copies' weights.
    """
    num_tiles = tables.num_tiles
    ends, first = np.unique(link_ends(tables.links), axis=0, return_index=True)
    lengths = np.asarray(tables.link_lengths, dtype=np.float64)[first]
    weights = 1.0 + tables._LENGTH_EPSILON * lengths
    graph = csr_matrix(
        (np.r_[weights, weights], (np.r_[ends[:, 0], ends[:, 1]], np.r_[ends[:, 1], ends[:, 0]])),
        shape=(num_tiles, num_tiles),
    )
    return dijkstra(graph).astype(np.float32)
