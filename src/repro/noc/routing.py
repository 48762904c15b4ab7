"""Deterministic shortest-path routing over a design's link placement.

All objectives of Section III need, for every communicating tile pair
``(i, j)``, the set of links (``p_ijk``) and routers (``r_ijk``) used by the
route.  We use deterministic minimal routing: paths minimise hop count, with
ties broken by physical path length and then lexicographically (the
smallest-id predecessor wins at every step), so a design always maps to the
same routes (and therefore the same objective vector).

Construction vs queries
-----------------------
Table construction is split from path queries so tables can be shared
read-only across designs and repaired incrementally:

* ``scipy.sparse.csgraph`` computes only the all-pairs *distance* matrix;
* predecessors are then derived canonically from the distances
  (:meth:`RoutingTables._canonical_predecessors`): the predecessor of ``v`` on
  the route from ``i`` is the smallest-id neighbour ``u`` with
  ``dist(i, u) + w(u, v) == dist(i, v)``.  Link weights are
  ``1 + epsilon * length`` with integer lengths, so distinct
  ``(hops, length)`` combinations differ by at least ``epsilon`` and the tie
  test is a pure function of the distance matrix — immune to heap-order
  artefacts of the Dijkstra implementation.  That property is what makes
  :meth:`RoutingTables.incremental_update` exact.

Pair-granular repair
--------------------
A rewire changes few routes, so a repair re-derives only those:

* only the *affected* sources — whose route tree crosses a removed link, or
  whose distances an added link ties or beats — get new distances, and of
  those only the sources a removed link cuts (plus the added links' ends)
  re-run Dijkstra; the rest gain links only and are updated in closed form;
* inside an affected row, a canonical predecessor is re-derived only where
  its inputs changed: the node's distance, a neighbour's distance, or its
  incident links;
* a route changes exactly when some node on its new chain got a new
  predecessor, so one propagation down each new tree finds the changed
  pairs.  Only they are re-swept; every other pair copies its ``P`` entries
  (link ids renumbered), hop count and length from the parent.

A fresh build is the every-pair-changed case of the same pair-table builder,
and a repaired table holds the same arrays as a fresh build byte for byte.

Tables depend only on the *link set* (plus the grid), never on the PE
placement, which is why :class:`repro.noc.routing_engine.RoutingEngine` can
key a cross-design route cache on the link tuple alone.
:meth:`RoutingTables.from_links` builds tables without a design object.

Batch path tables
-----------------
Besides the per-pair query API, :class:`RoutingTables` exposes compact batch
structures used by the vectorized objective engine in :mod:`repro.objectives`.
They are reconstructed lazily, in a single vectorized sweep over the
predecessor matrix (one iteration per path-length step, all pairs at once),
instead of walking predecessors pair-by-pair:

* :meth:`pair_link_pattern` — the CSR pattern ``(indptr, indices)`` (int32)
  of the path-link incidence ``P`` of shape ``(num_tiles**2, num_links)``:
  row ``p = src * num_tiles + dst`` lists the links the route of the ordered
  tile pair ``p`` traverses.  Every entry of ``P`` is 1, so no data array is
  stored.
* :meth:`link_loads` — ``P.T @ f`` for a pair-frequency vector ``f`` (link
  utilisation), as one ``bincount`` over the pattern.
* :meth:`pair_router_ports` — per-pair sums of router port counts
  (``degree + 1``) over every router on the route, endpoints included (a
  self pair visits only its own router): the router-energy term.  It is
  summed down the predecessor trees with the table's own degrees, so no
  pair-router incidence is stored.
* :meth:`pair_hops` / :meth:`pair_lengths` — dense per-pair hop counts
  ``h_ij`` (int16) and physical route lengths ``d_ij``.
* :meth:`reachable_pairs` — boolean per-pair reachability in the same flat
  ``src * num_tiles + dst`` order.

Minimal routes are simple paths, so every incidence entry is 0/1 and
``pair_hops`` equals the row lengths of ``P``.

The rows of ``P`` are stored in *route order*, not sorted by column: the
sweep writes the ``s``-th step of a pair's route straight into slot ``s`` of
its row, so a row lists the last hop first (:meth:`RoutingTables._route_order_pattern`).
No sort is needed, and the objectives do not depend on the in-row order:
``P.T @ f`` accumulates into each link in pair order, and the route lengths
and port sums add integers, which is exact in any order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.noc.design import NocDesign
from repro.noc.geometry import Grid3D
from repro.noc.links import Link, link_ends, link_lengths_array

#: scipy's "no predecessor" sentinel (source itself or unreachable pair).
#: Predecessors are tile ids or this sentinel, so they are stored as int16.
NO_PREDECESSOR = -9999


class RoutingTables:
    """All-pairs deterministic shortest-path routes for one link placement.

    Parameters
    ----------
    design:
        The design whose link placement defines the network graph.
    grid:
        The tile grid (used for physical link lengths).

    Notes
    -----
    The edge weight used for the search is ``1 + epsilon * length`` so that
    hop count dominates and physical length breaks ties; ``epsilon`` is small
    enough that no sum of length terms can outweigh a single hop.  Tables are
    a function of ``(links, num_tiles, grid)`` only — the placement never
    enters — so one instance can serve every design sharing a link set.
    """

    _LENGTH_EPSILON = 1e-3
    #: Distances are ``hops + epsilon * length`` with integer hops/lengths, so
    #: genuinely different values are at least ``epsilon`` apart (up to ~1e-13
    #: of float accumulation noise); anything closer than this tolerance is
    #: the same value computed along a different equal-cost path.
    _TIE_TOLERANCE = 1e-6
    #: Pairs per block of :meth:`link_loads`.
    _LOAD_BLOCK = 16384

    def __init__(self, design: NocDesign, grid: Grid3D):
        self._build(design.links, design.num_tiles, grid)

    @classmethod
    def from_links(
        cls, links: "Sequence[Link] | Iterable[Link]", num_tiles: int, grid: Grid3D
    ) -> "RoutingTables":
        """Build tables directly from a link set (no design object needed)."""
        tables = object.__new__(cls)
        tables._build(tuple(sorted(links)), int(num_tiles), grid)
        return tables

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build(self, links: tuple[Link, ...], num_tiles: int, grid: Grid3D) -> None:
        """Full fresh build: graph setup, all-pairs Dijkstra, canonical routes."""
        self._setup_static(links, num_tiles, grid)
        self._distance = dijkstra(self._graph)
        self._predecessors = self._canonical_predecessors(self._distance)
        self._reset_lazy()

    def _setup_static(self, links: tuple[Link, ...], num_tiles: int, grid: Grid3D) -> None:
        """Set up everything that derives directly from the link set."""
        self.links = links
        self.grid = grid
        self.num_tiles = num_tiles
        self.num_links = len(links)
        ends_a, ends_b = link_ends(links).T.copy()
        self._ends_a = ends_a
        self._ends_b = ends_b
        # Links are lexicographically sorted and a*num_tiles+b is monotone in
        # (a, b), so these keys are ascending — searchsorted-friendly.
        self._link_keys = ends_a * np.int64(num_tiles) + ends_b
        self._link_index: dict[tuple[int, int], int] | None = None
        self.link_lengths = link_lengths_array(links, grid)
        self._weights = 1.0 + self._LENGTH_EPSILON * self.link_lengths
        # The graph as a CSR matrix grouped by head: row ``v`` lists the tails
        # of ``v``'s in-edges, ascending (the link list is sorted and the sort
        # stable).  Links are undirected, so that is also the adjacency and
        # Dijkstra runs on it as a directed graph (no symmetrising pass); the
        # canonical predecessor derivation reads the same rows.
        tails = np.concatenate((ends_a, ends_b))
        heads = np.concatenate((ends_b, ends_a))
        order = np.argsort(heads, kind="stable")
        head_ptr = np.zeros(num_tiles + 1, dtype=np.int32)
        np.cumsum(np.bincount(heads, minlength=num_tiles), out=head_ptr[1:])
        weights = np.concatenate((self._weights, self._weights))
        self._graph = csr_matrix(
            (weights[order], tails[order].astype(np.int32), head_ptr),
            shape=(num_tiles, num_tiles),
        )

    @property
    def link_index(self) -> dict[tuple[int, int], int]:
        """Endpoint pair -> link index lookup (built lazily, query path only)."""
        if self._link_index is None:
            index: dict[tuple[int, int], int] = {}
            for idx, (a, b) in enumerate(zip(self._ends_a.tolist(), self._ends_b.tolist())):
                index[(a, b)] = idx
                index[(b, a)] = idx
            self._link_index = index
        return self._link_index

    def _reset_lazy(self) -> None:
        self._path_cache: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        # Lazily built batch structures (see _build_pair_tables).
        self._pair_indptr: np.ndarray | None = None
        self._pair_links: np.ndarray | None = None
        self._pair_hops: np.ndarray | None = None
        self._pair_lengths: np.ndarray | None = None
        self._pair_ports: np.ndarray | None = None
        self._reachable: np.ndarray | None = None

    def _in_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Directed edges grouped by head: ``(tails, weights, head_ptr)``.

        The in-edges of node ``v`` are ``tails[head_ptr[v]:head_ptr[v + 1]]``,
        ascending; the graph is undirected, so they are also ``v``'s
        neighbours.  These are the arrays of the CSR graph itself.
        """
        return self._graph.indices, self._graph.data, self._graph.indptr

    def _canonical_predecessors(self, distance_rows: np.ndarray) -> np.ndarray:
        """Derive lexicographic-minimal predecessors from a distance block.

        For every (source row, node ``v``) the predecessor is the smallest-id
        neighbour ``u`` of ``v`` with ``dist(u) + w(u, v) == dist(v)`` (within
        the tie tolerance).  Because edge weights strictly decrease along the
        chain, the walk always terminates at the source.  The result depends
        only on the distances and the graph — not on how Dijkstra happened to
        visit equal-cost alternatives — which makes routes reproducible across
        fresh builds and incremental repairs.  :meth:`_local_predecessors`
        applies the same test to listed entries only.
        """
        num_sources = distance_rows.shape[0]
        num_tiles = self.num_tiles
        predecessors = np.full((num_sources, num_tiles), num_tiles, dtype=np.int16)
        if self.num_links:
            # Edges sorted by head, so a single reduceat computes, per
            # (source, head), the minimum tail satisfying the tie test.
            tails, weights, head_ptr = self._in_edges()
            degrees = np.diff(head_ptr)
            heads = np.repeat(np.arange(num_tiles), degrees)
            # inf - inf (both endpoints unreachable) yields nan, which the
            # comparison correctly rejects — suppress the noise warning.
            with np.errstate(invalid="ignore"):
                candidate = distance_rows[:, tails] + weights[None, :]
                on_route = np.abs(candidate - distance_rows[:, heads]) <= self._TIE_TOLERANCE
            tail_ids = np.where(on_route, tails[None, :], num_tiles)
            linked = np.flatnonzero(degrees)
            predecessors[:, linked] = np.minimum.reduceat(tail_ids, head_ptr[linked], axis=1)
        predecessors[predecessors == num_tiles] = NO_PREDECESSOR
        return predecessors

    def _local_predecessors(self, distance_rows: np.ndarray, entries: np.ndarray) -> np.ndarray:
        """Canonical predecessors of the listed entries of a distance block.

        ``entries`` are ascending flat indices ``row * num_tiles + v`` into
        ``distance_rows``.  Each entry runs the tie test of
        :meth:`_canonical_predecessors` over ``v``'s in-edges only, so the
        cost is proportional to the entries listed, not to the block.
        """
        num_tiles = self.num_tiles
        result = np.full(entries.size, NO_PREDECESSOR, dtype=np.int16)
        tails, weights, head_ptr = self._in_edges()
        nodes = entries % num_tiles
        degrees = head_ptr[nodes + 1] - head_ptr[nodes]
        linked = np.flatnonzero(degrees)
        if not linked.size:
            return result
        edges, starts = _segment_ranges(head_ptr[nodes[linked]], degrees[linked])
        heads = np.repeat(entries[linked], degrees[linked])
        edge_tails = tails[edges]
        flat = distance_rows.ravel()
        with np.errstate(invalid="ignore"):
            candidate = flat[heads - heads % num_tiles + edge_tails] + weights[edges]
            on_route = np.abs(candidate - flat[heads]) <= self._TIE_TOLERANCE
        minima = np.minimum.reduceat(np.where(on_route, edge_tails, num_tiles), starts)
        result[linked] = np.where(minima == num_tiles, NO_PREDECESSOR, minima)
        return result

    def _stale_entries(
        self, old_rows: np.ndarray, new_rows: np.ndarray, endpoints: np.ndarray
    ) -> np.ndarray:
        """Flat entries of a block of source rows whose predecessor can change.

        A canonical predecessor is a function of the node's own distance, its
        neighbours' distances and its incident links.  So ``pred[s, v]``
        needs re-deriving only where ``dist[s, v]`` moved, where a neighbour's
        distance moved, or where ``v`` is an ``endpoint`` of a changed link
        (a link that only the parent had is one of those).  Distances equal
        within the tie tolerance count as unchanged: the tie test cannot tell
        them apart.
        """
        num_tiles = self.num_tiles
        # inf - inf (unreachable before and after) is nan, which compares
        # False: not moved.
        with np.errstate(invalid="ignore"):
            stale = np.abs(new_rows - old_rows) > self._TIE_TOLERANCE
        moved = np.flatnonzero(stale)
        tails, _, head_ptr = self._in_edges()
        nodes = moved % num_tiles
        degrees = head_ptr[nodes + 1] - head_ptr[nodes]
        edges, _ = _segment_ranges(head_ptr[nodes], degrees)
        stale.ravel()[np.repeat(moved - nodes, degrees) + tails[edges]] = True
        stale[:, endpoints] = True
        return np.flatnonzero(stale)

    def _repaired_distances(
        self, parent: "RoutingTables", cut: np.ndarray, affected: np.ndarray, added: np.ndarray
    ) -> np.ndarray:
        """The parent's distance matrix with the ``affected`` source rows updated.

        Sources a removed link ``cut`` re-run Dijkstra, and so do both ends
        of every ``added`` link (each is affected: the link ties or beats its
        old route).  Any other affected source only gains links: none of its
        old routes crosses a removed link, so its old distances still hold
        without the added ones.  Its shortest route then either keeps the
        old distance or reaches the first added link it uses the old way,
        crosses it and continues along the far end's re-run row.
        """
        distance = parent._distance.copy()
        new_a, new_b, weight = self._ends_a[added], self._ends_b[added], self._weights[added]
        rerun = cut.copy()
        rerun[new_a] = rerun[new_b] = True
        rerun_rows = np.flatnonzero(rerun)
        if rerun_rows.size:
            distance[rerun_rows] = dijkstra(self._graph, indices=rerun_rows)
        gained = np.flatnonzero(affected & ~rerun)
        if gained.size:
            block = distance[gained]
            for x, y, w in zip(np.r_[new_a, new_b], np.r_[new_b, new_a], np.r_[weight, weight]):
                np.minimum(block, parent._distance[gained, x][:, None] + w + distance[y], out=block)
            distance[gained] = block
        return distance

    def incremental_update(self, new_links: "Sequence[Link] | Iterable[Link]") -> "RoutingTables":
        """New tables for a changed link set, re-deriving only the routes that change.

        A source must be re-run when its canonical route tree crosses a
        removed link, or when an added link strictly improves — or ties —
        the distance to one of its endpoints (a tie can change the canonical
        predecessor choice).  Every other source provably keeps identical
        distances and canonical routes, so its rows are copied.  Affected
        rows get new distances (:meth:`_repaired_distances`), but a
        predecessor is re-derived only where its inputs changed
        (:meth:`_stale_entries`).  A route then changes exactly when some
        node on its new chain got a new predecessor (:func:`_changed_routes`),
        and only those pairs are re-swept: every other pair's pattern
        entries, hops and length are copied from the parent.  Cached tables
        stay untouched ("repair" returns a new instance), because the
        parent's entry remains live under its own topology key.

        The result is bit-identical (routes, hops, pair tables) to a fresh
        :class:`RoutingTables` build for ``new_links``.
        """
        updated = object.__new__(RoutingTables)
        updated._setup_static(tuple(sorted(new_links)), self.num_tiles, self.grid)

        removed = np.isin(self._link_keys, updated._link_keys, invert=True)
        added = np.isin(updated._link_keys, self._link_keys, invert=True)
        # Removed links: sources whose route tree used one of them.
        ends_a, ends_b = self._ends_a[removed], self._ends_b[removed]
        cut = (
            (self._predecessors[:, ends_b] == ends_a) | (self._predecessors[:, ends_a] == ends_b)
        ).any(axis=1)
        # Added links: sources one of them improves or ties.
        new_a, new_b = updated._ends_a[added], updated._ends_b[added]
        dist_a = self._distance[:, new_a]
        dist_b = self._distance[:, new_b]
        weight = updated._weights[added]
        relevant = (dist_a + weight <= dist_b + self._TIE_TOLERANCE) | (
            dist_b + weight <= dist_a + self._TIE_TOLERANCE
        )
        # inf <= inf is a numpy truth but a no-op for routing: the new
        # link cannot connect tiles that are both unreachable.
        relevant &= ~(np.isinf(dist_a) & np.isinf(dist_b))
        affected = cut | relevant.any(axis=1)

        distance = updated._repaired_distances(self, cut, affected, added)
        predecessors = self._predecessors.copy()
        rows = np.flatnonzero(affected)
        changed_pairs = np.empty(0, dtype=np.intp)
        if rows.size:
            block = distance[rows]
            endpoints = np.concatenate((ends_a, ends_b, new_a, new_b))
            stale = updated._stale_entries(self._distance[rows], block, endpoints)
            old = self._predecessors[rows]
            if 2 * stale.size < block.size:
                new = old.copy()
                new.ravel()[stale] = updated._local_predecessors(block, stale)
            else:
                # A large delta leaves most entries stale, and per entry the
                # whole-row derivation costs about half the listed one.
                new = updated._canonical_predecessors(block)
            predecessors[rows] = new
            changed_rows, changed_nodes = np.nonzero(_changed_routes(old, new))
            changed_pairs = rows[changed_rows] * self.num_tiles + changed_nodes
        updated._distance = distance
        updated._predecessors = predecessors
        updated._reset_lazy()
        updated._adopt_pair_tables(self, changed_pairs)
        return updated

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def is_reachable(self, src: int, dst: int) -> bool:
        """True when a route exists from ``src`` to ``dst``."""
        return np.isfinite(self._distance[src, dst])

    def hops(self, src: int, dst: int) -> int:
        """Number of links traversed on the route (``h_ij``).

        Answers from the batch tables when they are already built; a single
        query on a fresh instance uses the cheap cached predecessor walk
        instead of triggering the whole-network sweep.
        """
        if src == dst:
            return 0
        if self._pair_hops is not None:
            if not self.is_reachable(src, dst):
                raise ValueError(
                    f"no route from tile {src} to tile {dst}: network is disconnected"
                )
            return int(self._pair_hops[src * self.num_tiles + dst])
        return len(self.path_links(src, dst))

    def path_length(self, src: int, dst: int) -> float:
        """Total physical length of the route (``d_ij``), in tile units."""
        if src == dst:
            return 0.0
        if self._pair_lengths is not None:
            if not self.is_reachable(src, dst):
                raise ValueError(
                    f"no route from tile {src} to tile {dst}: network is disconnected"
                )
            return float(self._pair_lengths[src * self.num_tiles + dst])
        links = self.path_links(src, dst)
        return float(self.link_lengths[links].sum()) if links else 0.0

    def path_tiles(self, src: int, dst: int) -> list[int]:
        """The ordered tiles (routers) visited by the route, endpoints included."""
        return self._path(src, dst)[0]

    def path_links(self, src: int, dst: int) -> list[int]:
        """The ordered link indices traversed by the route."""
        return self._path(src, dst)[1]

    # ------------------------------------------------------------------ #
    # Batch structures (vectorized objective engine)
    # ------------------------------------------------------------------ #
    def pair_index(self, src: int, dst: int) -> int:
        """Flat index of the ordered tile pair ``(src, dst)`` in the batch tables."""
        return src * self.num_tiles + dst

    def pair_link_pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR pattern ``(indptr, indices)`` of the path-link incidence ``P``.

        ``P`` has shape ``(num_tiles**2, num_links)`` and every stored entry
        is 1, so the pattern is the whole matrix.  Both arrays are read-only
        int32, and each row lists its route's links last hop first.
        """
        if self._pair_links is None:
            self._build_pair_tables()
        return self._pair_indptr, self._pair_links

    def link_loads(self, pair_weights: np.ndarray) -> np.ndarray:
        """``P.T @ pair_weights``: the summed weight of the pairs routed over each link.

        ``bincount`` (first block) and then ``np.add.at`` add into each link
        in pair order, the order scipy's ``P.T @ w`` uses, so the result is
        bit-identical to the sparse product.  Going through the pairs in
        blocks keeps the per-entry weights a few hundred kB at a time instead
        of one array as long as ``P``'s pattern (2 MB at 256 tiles): an
        allocation that large comes back as fresh, page-faulting memory on
        most calls.
        """
        indptr, links = self.pair_link_pattern()
        hops = self.pair_hops()
        loads = None
        for start in range(0, hops.size, self._LOAD_BLOCK):
            end = min(start + self._LOAD_BLOCK, hops.size)
            block_links = links[indptr[start] : indptr[end]]
            weights = np.repeat(pair_weights[start:end], hops[start:end])
            if loads is None:
                loads = np.bincount(block_links, weights=weights, minlength=self.num_links)
            else:
                np.add.at(loads, block_links, weights)
        return loads

    def pair_router_ports(self) -> np.ndarray:
        """Per-pair sum of router port counts over the route (int32, read-only).

        A router has ``degree + 1`` ports (its links plus the local PE port),
        from this table's own link set.  Every router on a route is counted,
        endpoints included; a self pair counts its own router, an unreachable
        pair is 0.  The sums run down each source's predecessor tree
        (:func:`_chain_reduce`), so they read neither ``P`` nor a parent's
        sums — a rewire changes router degrees on routes that did not move.
        All integers, so the result is exact in any order.
        """
        if self._pair_ports is None:
            ends = np.concatenate((self._ends_a, self._ends_b))
            ports = np.bincount(ends, minlength=self.num_tiles).astype(np.int32) + 1
            # Each node below a source contributes its own ports; the source
            # (every chain's root) is added once at the end.
            below = self._predecessors != NO_PREDECESSOR
            sums = _chain_reduce(np.where(below, ports, 0), self._predecessors, np.add)
            sums += ports[:, None]
            sums = sums.ravel()
            sums[~self.reachable_pairs()] = 0
            sums.setflags(write=False)
            self._pair_ports = sums
        return self._pair_ports

    def pair_hops(self) -> np.ndarray:
        """Per-pair hop counts ``h_ij`` (int16; 0 for self and unreachable pairs)."""
        if self._pair_hops is None:
            self._build_pair_tables()
        return self._pair_hops

    def pair_lengths(self) -> np.ndarray:
        """Per-pair physical route lengths ``d_ij`` (0 where no route exists)."""
        if self._pair_lengths is None:
            self._build_pair_tables()
        return self._pair_lengths

    def reachable_pairs(self) -> np.ndarray:
        """Boolean per-pair reachability, flattened in ``src * num_tiles + dst`` order."""
        if self._reachable is None:
            self._reachable = np.isfinite(self._distance).ravel()
            self._reachable.setflags(write=False)
        return self._reachable

    def reachable_matrix(self) -> np.ndarray:
        """Boolean tile-to-tile reachability matrix."""
        return self.reachable_pairs().reshape(self.num_tiles, self.num_tiles)

    @property
    def nbytes(self) -> int:
        """Bytes held by this table's numpy arrays, the sparse graph included."""
        total = 0
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
            elif isinstance(value, csr_matrix):
                total += value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
        return total

    def _build_pair_tables(self) -> None:
        """Reconstruct every route at once from the predecessor matrix."""
        self._route_pair_tables(np.arange(self.num_tiles * self.num_tiles))

    def _adopt_pair_tables(self, parent: "RoutingTables", changed_pairs: np.ndarray) -> None:
        """Repair the batch structures from a parent's, re-sweeping only changed pairs.

        Every other pair keeps its canonical route, and such a route never
        traverses a removed link, so its row of ``P`` survives verbatim with
        the link ids remapped to the new link indexing.  No-op (tables stay
        lazy) when the parent never built its batch structures.  Router port
        sums are never adopted: a rewire changes router degrees on routes
        that did not move, so the child derives its own.
        """
        if parent._pair_links is None:
            return
        # Both key arrays are ascending, so surviving parent links map to new
        # indices with one searchsorted (no per-link Python lookups).  The
        # table is int32 like the pattern it renumbers.
        old_to_new = np.full(parent.num_links, -1, dtype=np.int32)
        if self.num_links:
            positions = np.searchsorted(self._link_keys, parent._link_keys)
            positions = np.minimum(positions, self.num_links - 1)
            survives = self._link_keys[positions] == parent._link_keys
            old_to_new[survives] = positions[survives]
        self._route_pair_tables(changed_pairs, parent, old_to_new)

    def _route_pair_tables(
        self,
        changed_pairs: np.ndarray,
        parent: "RoutingTables | None" = None,
        link_remap: "np.ndarray | None" = None,
    ) -> None:
        """Build ``P``'s pattern, hops and lengths: sweep changed pairs, copy the rest.

        The one builder behind fresh builds (every pair changed, no parent)
        and repairs (every other pair's entries and length come from the
        ``parent``, link ids renumbered through ``link_remap``).
        """
        steps = self._route_steps(changed_pairs)
        if parent is None:
            lengths = np.zeros(self.num_tiles * self.num_tiles, dtype=np.float64)
        else:
            lengths = parent._pair_lengths.copy()
            lengths[changed_pairs] = 0.0
        # Link lengths are integer-valued floats, so these step-wise sums are
        # exact (identical to any other summation order).
        for pairs, step_links in steps:
            lengths[pairs] += self.link_lengths[step_links]
        indptr, links = self._route_order_pattern(steps, changed_pairs, parent, link_remap)
        # Minimal routes are simple paths, so h_ij is exactly the number of
        # entries in the pair's row.
        hops = np.diff(indptr).astype(np.int16)
        for array in (indptr, links, hops, lengths):
            array.setflags(write=False)
        self._pair_indptr, self._pair_links = indptr, links
        self._pair_hops, self._pair_lengths = hops, lengths

    def _route_steps(self, pairs: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Route reconstruction sweep for the listed flat pairs (ascending).

        Walks all destination-to-source chains simultaneously: iteration ``s``
        advances every still-active pair one predecessor step and emits the
        link of the traversed ``(prev, cur)`` edge.  The loop runs
        ``max h_ij`` times (at most the network diameter), with all per-pair
        work vectorized.

        Returns a list of ``(pair rows, link ids)`` chunks with flat pair
        rows (``src * num_tiles + dst``).  Chunk ``s`` holds link ``s`` of
        each listed row in route order, from the destination back to the
        source, so a row lists the last hop first.  Each chunk lists a row at
        most once, in ascending row order.
        """
        num_tiles = self.num_tiles
        src, dst = np.divmod(pairs, num_tiles)
        reachable = np.isfinite(self._distance.ravel()[pairs])
        # Dense (tile, tile) -> link lookup, so each step maps its traversed
        # edges to links with one gather.  It lives only for this sweep.
        edge_link = np.full((num_tiles, num_tiles), -1, dtype=np.int32)
        link_ids = np.arange(self.num_links, dtype=np.int32)
        edge_link[self._ends_a, self._ends_b] = link_ids
        edge_link[self._ends_b, self._ends_a] = link_ids

        steps: list[tuple[np.ndarray, np.ndarray]] = []
        cur = dst.copy()
        active = np.flatnonzero(reachable & (src != dst))
        while active.size:
            prev = self._predecessors[src[active], cur[active]]
            steps.append((pairs[active], edge_link[prev, cur[active]]))
            cur[active] = prev
            active = active[prev != src[active]]
        return steps

    def _route_order_pattern(
        self,
        steps: list[tuple[np.ndarray, np.ndarray]],
        changed_pairs: np.ndarray,
        parent: "RoutingTables | None" = None,
        link_remap: "np.ndarray | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Route-order int32 CSR pattern from swept steps, plus rows kept from a parent.

        Entry ``s`` of a swept row goes straight into slot ``indptr[row] +
        s``, so every row lists its links in route order and no sort is
        needed.  With a ``parent`` pattern (itself route-ordered), every row
        not in ``changed_pairs`` is copied from it in one masked gather, with
        link ids renumbered through ``link_remap``.  A repaired table
        therefore holds the same arrays as a fresh build byte for byte.
        """
        if parent is None:
            counts = np.zeros(self.num_tiles * self.num_tiles, dtype=np.int32)
        else:
            parent_indptr, parent_links = parent._pair_indptr, parent._pair_links
            counts = np.diff(parent_indptr)
            parent_counts = counts[changed_pairs]
            counts[changed_pairs] = 0
        for rows, _ in steps:
            counts[rows] += 1
        indptr = np.zeros(counts.size + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        links = np.empty(int(indptr[-1]), dtype=np.int32)
        if parent is not None:
            # Mask out the changed rows' entries on both sides; what is left
            # lines up entry for entry, since kept rows keep their lengths.
            kept_in = np.ones(parent_links.size, dtype=bool)
            kept_in[_segment_ranges(parent_indptr[changed_pairs], parent_counts)[0]] = False
            kept_out = np.ones(links.size, dtype=bool)
            kept_out[_segment_ranges(indptr[changed_pairs], counts[changed_pairs])[0]] = False
            links[kept_out] = link_remap.take(parent_links[kept_in])
        row_starts = indptr[:-1]
        for step, (rows, step_links) in enumerate(steps):
            links[row_starts[rows] + step] = step_links
        assert links.size == 0 or links.min() >= 0, (
            "route of an unchanged pair crossed a removed link"
        )
        return indptr, links

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _path(self, src: int, dst: int) -> tuple[list[int], list[int]]:
        key = (src, dst)
        if key in self._path_cache:
            return self._path_cache[key]
        if src == dst:
            result = ([src], [])
            self._path_cache[key] = result
            return result
        if not self.is_reachable(src, dst):
            raise ValueError(f"no route from tile {src} to tile {dst}: network is disconnected")
        tiles = [dst]
        node = dst
        while node != src:
            node = int(self._predecessors[src, node])
            if node < 0:
                raise ValueError(f"no route from tile {src} to tile {dst}")
            tiles.append(node)
        tiles.reverse()
        links = [self.link_index[(a, b)] for a, b in zip(tiles[:-1], tiles[1:])]
        result = (tiles, links)
        self._path_cache[key] = result
        return result


def _segment_ranges(firsts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ``arange(first, first + count)`` runs and each run's start.

    Returns ``(indices, starts)``: ``indices`` lists every run back to back
    and ``starts[i]`` is where run ``i`` begins in it.
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(firsts - starts, counts), starts


def _chain_reduce(values: np.ndarray, predecessors: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """Fold ``ufunc`` over every node's chain in a block of predecessor rows.

    The chain of ``v`` in a source row is ``v, pred(v), ...`` up to the
    source; the result at ``v`` is ``values`` folded over it.  Pointer
    doubling does this in ``log2(depth)`` gathers: after round ``k`` an
    entry covers ``2**k`` nodes of its chain and ``ancestor`` points just
    past them.  Sources and unreachable nodes point to themselves, so
    ``values`` must be ``ufunc``'s identity there unless ``ufunc`` is
    idempotent.  ``values`` is consumed.
    """
    num_rows, num_tiles = predecessors.shape
    folded = values.ravel()
    row_base = np.arange(num_rows)[:, None] * num_tiles
    ancestor = np.where(
        predecessors == NO_PREDECESSOR, row_base + np.arange(num_tiles), row_base + predecessors
    ).ravel()
    while True:
        next_ancestor = ancestor[ancestor]
        if np.array_equal(next_ancestor, ancestor):
            return folded.reshape(predecessors.shape)
        ufunc(folded, folded[ancestor], out=folded)
        ancestor = next_ancestor


def _changed_routes(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Which routes of a block of source rows differ between two predecessor blocks.

    ``old`` and ``new`` hold the same sources' predecessors before and after
    a rewire.  The route to ``v`` is its chain in the new tree, so it
    changes exactly when some node on that chain has a new predecessor (an
    unreachable node that becomes reachable, or the reverse, counts too).
    """
    return _chain_reduce(new != old, new, np.logical_or)
