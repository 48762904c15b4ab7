"""Retired routing-table builders, kept as oracles for the compact tables.

``RoutingTables`` used to hold its path incidences as float64 CSR matrices:
``P`` (pair x link) and ``R`` (pair x router).  It now stores only ``P``'s
int32 pattern and sums the router-energy terms ``R @ ports`` down its
predecessor trees, so ``R`` is no longer built at all.  The builders live on
here:

* :func:`pair_link_incidence` assembles ``P`` as a ``csr_matrix`` from the
  stored pattern, so tests can take ``P.T @ f`` and ``P @ lengths`` with
  scipy and compare them with the tables' own results byte for byte;
* :func:`pair_tile_incidence` is the retired route-order sweep that built
  ``R`` from the predecessor matrix, and :func:`router_ports` its product
  with ``degrees + 1``;
* :func:`canonical_csr` is the sorted-index CSR builder the route-order
  rows replaced (``tests/noc/test_routing_route_order.py``);
* :func:`changed_route_pairs` compares two tables' tile paths pair by pair,
  the brute-force twin of the changed-pair set a repair re-sweeps.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from repro.noc.links import link_ends


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


def pair_link_incidence(tables) -> csr_matrix:
    """``P`` of shape ``(num_tiles**2, num_links)`` as a 0/1 float64 ``csr_matrix``.

    Rows keep the tables' route order (last hop first).
    """
    indptr, links = tables.pair_link_pattern()
    num_pairs = tables.num_tiles * tables.num_tiles
    return csr_matrix(
        (np.ones(links.size, dtype=np.float64), links.copy(), indptr.copy()),
        shape=(num_pairs, tables.num_links),
    )


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
    counts = np.zeros(pairs.size, dtype=np.int64)
    for rows, _ in steps:
        counts[rows] += 1
    indptr = np.zeros(pairs.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    for step, (rows, tiles) in enumerate(steps):
        indices[indptr[rows] + step] = tiles
    return csr_matrix(
        (np.ones(indices.size, dtype=np.float64), indices, indptr),
        shape=(pairs.size, num_tiles),
    )


def router_ports(tables) -> np.ndarray:
    """The retired router-energy sums ``R @ (degrees + 1)`` (float64)."""
    degrees = np.bincount(link_ends(tables.links).ravel(), minlength=tables.num_tiles)
    return pair_tile_incidence(tables) @ (degrees.astype(np.float64) + 1.0)


def changed_route_pairs(parent, child) -> np.ndarray:
    """Flat pairs ``src * num_tiles + dst`` whose tile path differs, by brute force.

    Walks every pair's route in both tables through the per-pair query API;
    a pair that is reachable in only one of them counts as changed, one
    that is unreachable in both does not.
    """
    num_tiles = parent.num_tiles

    def route(tables, src, dst):
        return tables.path_tiles(src, dst) if tables.is_reachable(src, dst) else None

    return np.array(
        [
            src * num_tiles + dst
            for src in range(num_tiles)
            for dst in range(num_tiles)
            if route(parent, src, dst) != route(child, src, dst)
        ],
        dtype=np.int64,
    )
