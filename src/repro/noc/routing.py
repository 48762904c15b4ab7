"""Deterministic shortest-path routing over a design's link placement.

All objectives of Section III need, for every communicating tile pair
``(i, j)``, the set of links (``p_ijk``) and routers (``r_ijk``) used by the
route.  We use deterministic minimal routing: paths minimise hop count, with
ties broken by physical path length and then lexicographically (the
smallest-id predecessor wins at every step), so a design always maps to the
same routes (and therefore the same objective vector).

Construction
------------
Tables are built so they can be shared read-only across designs and repaired
incrementally:

* ``scipy.sparse.csgraph`` computes only the all-pairs *distance* matrix;
* predecessors are then derived canonically from the distances
  (:meth:`RoutingTables._canonical_predecessors`): the predecessor of ``v`` on
  the route from ``i`` is the smallest-id neighbour ``u`` with
  ``dist(i, u) + w(u, v) == dist(i, v)``.  Link weights are
  ``1 + epsilon * length`` with integer lengths and ``epsilon = 2**-10``, so
  every weight and every sum of weights is exact in binary: a distance is
  exactly ``hops + length / 1024`` whatever the path or the summation order,
  distinct ``(hops, length)`` combinations differ by at least ``epsilon``,
  and the tie test is a pure function of the distance matrix — immune to
  heap-order artefacts of the Dijkstra implementation.  That property is
  what makes :meth:`RoutingTables.incremental_update` exact, down to the
  bytes of the distance matrix.  The distances are stored as float32, which
  holds them exactly while ``1024 * distance < 2**24``.

Pair-granular repair
--------------------
A rewire changes few routes, so a repair re-derives only the distances and
predecessors it can change:

* only the *affected* sources — whose route tree crosses a removed link, or
  whose distances an added link ties or beats — get new distances, and of
  those only the sources a removed link cuts (plus the added links' ends)
  re-run Dijkstra; the rest gain links only and are updated in closed form;
* inside an affected row, a canonical predecessor is re-derived only where
  its inputs changed: the node's distance, a neighbour's distance, or its
  incident links.

Every per-pair table of the child is then derived from its own
predecessors, as on a fresh build, and nothing is copied from the parent's
pair tables, so a repaired table holds the same arrays as a fresh build
byte for byte.

Tables depend only on the *link set* (plus the grid), never on the PE
placement, which is why :class:`repro.noc.routing_engine.RoutingEngine` can
key a cross-design route cache on the link tuple alone.
:meth:`RoutingTables.from_links` builds tables without a design object.

Pair tables
-----------
:class:`RoutingTables` answers only in whole per-pair arrays, read by the
objective engine in :mod:`repro.objectives` and by the Fig. 3 simulator in
:mod:`repro.simulation`; no route is ever walked pair by pair.  The arrays
are built lazily and together, from one layout of the route trees
(:meth:`RoutingTables._build_pair_tables`, below):

* :meth:`link_loads` — ``u = P.T @ f`` for a pair-frequency vector ``f``:
  the summed weight of the pairs routed over each link (link utilisation).
  The path-link incidence ``P`` itself is never stored.
* :meth:`pair_router_ports` — per-pair sums of router port counts
  (``degree + 1``) over every router on the route, endpoints included (a
  self pair visits only its own router): the router-energy term, with the
  table's own degrees.
* :meth:`pair_hops` / :meth:`pair_lengths` — dense per-pair hop counts
  ``h_ij`` and physical route lengths ``d_ij`` (both int16).
* :meth:`reachable_pairs` — boolean per-pair reachability in the same flat
  ``src * num_tiles + dst`` order.

Route-tree levels
-----------------
The routes from one source form its predecessor tree: the route to ``v`` is
the route to ``pred(v)`` plus the link ``pred(v) -> v``.  Every routed pair
(a reachable pair of distinct tiles) is laid out by hop count, level 1
first, and by flat pair index inside a level.  In that order the table keeps
three arrays: the pair and its parent pair's position in the level above
(int32), and its last-hop link (int16).  Then:

* hop counts are read off the distances (``hops + epsilon * length`` rounds
  to ``hops``) and checked against the trees: every pair sits one level
  below its parent;
* route lengths and port sums run top-down, one level at a time: a pair's
  value is its parent's plus its own last hop's.  They are integers, so
  the result is exact;
* :meth:`link_loads` runs bottom-up.  It seeds an accumulator with ``f``
  and, deepest level first, adds each pair into its parent (one
  ``bincount`` per level), so a pair ends up holding the traffic of its
  whole subtree: the traffic over its last hop.  One ``bincount`` over the
  last-hop links then gives the loads.

The loads are summed in tree order, not pair order, so they can differ from
a pair-order ``P.T @ f`` in the last few bits (up to about 3e-15 relative).
``tests/oracles/routing.py`` keeps a scalar tree walk that adds in the same
order, ``P`` rebuilt from the predecessors for the sparse product, and the
retired per-pair route walk.
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
    hop count dominates and physical length breaks ties; ``epsilon`` is a
    power of two, so every distance is exact, and small enough that no sum
    of length terms can outweigh a single hop.  Tables are
    a function of ``(links, num_tiles, grid)`` only — the placement never
    enters — so one instance can serve every design sharing a link set.
    """

    #: A power of two: ``1 + length / 1024`` and every sum of such weights is
    #: exact in binary (and in float32 while ``1024 * distance < 2**24``).
    _LENGTH_EPSILON = 2.0**-10
    #: Distances are exactly ``hops + epsilon * length`` with integer
    #: hops/lengths, so different values are at least ``epsilon`` apart and
    #: equal ones are equal bit for bit; the tolerance only has to sit below
    #: ``epsilon``.  Unreachable pairs (``inf - inf`` is nan) never tie.
    _TIE_TOLERANCE = 1e-6

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
        self._distance = dijkstra(self._graph).astype(np.float32)
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

    def _reset_lazy(self) -> None:
        # Lazily built batch structures (see _build_pair_tables).
        self._tree_pairs: np.ndarray | None = None
        self._tree_parents: np.ndarray | None = None
        self._tree_links: np.ndarray | None = None
        self._level_starts: tuple[int, ...] = ()
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
            # Weights and their sums are dyadic, so the float32 test is exact
            # and its (sources x in-edges) temporaries are half the size.
            weights = weights.astype(distance_rows.dtype)
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
        (:meth:`_stale_entries`).  The pair tables are left to the child's
        own lazy build.  Cached tables stay untouched ("repair" returns a new
        instance), because the parent's entry remains live under its own
        topology key.

        The result is bit-identical (distances, routes, hops, pair tables)
        to a fresh :class:`RoutingTables` build for ``new_links``.
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
        if rows.size:
            block = distance[rows]
            endpoints = np.concatenate((ends_a, ends_b, new_a, new_b))
            stale = updated._stale_entries(self._distance[rows], block, endpoints)
            if 2 * stale.size < block.size:
                new = predecessors[rows]
                new.ravel()[stale] = updated._local_predecessors(block, stale)
            else:
                # A large delta leaves most entries stale, and per entry the
                # whole-row derivation costs about half the listed one.
                new = updated._canonical_predecessors(block)
            predecessors[rows] = new
        updated._distance = distance
        updated._predecessors = predecessors
        updated._reset_lazy()
        return updated

    # ------------------------------------------------------------------ #
    # Pair tables
    # ------------------------------------------------------------------ #
    def link_loads(self, pair_weights: np.ndarray) -> np.ndarray:
        """``P.T @ pair_weights``: the summed weight of the pairs routed over each link.

        Sums up the route trees (see the module docstring): an accumulator
        in level order starts as the pairs' weights and, deepest level
        first, each level is added into the level above with one
        ``bincount`` over its parent positions.  A pair then holds its
        subtree's weight, which is the weight over its last hop, and one
        ``bincount`` over the last-hop links gives the loads.  Unreachable
        and self pairs route over no link.
        """
        if self._tree_pairs is None:
            self._build_pair_tables()
        starts, parents = self._level_starts, self._tree_parents
        totals = pair_weights.take(self._tree_pairs)
        for level in range(len(starts) - 1, 1, -1):
            above, first, end = starts[level - 2], starts[level - 1], starts[level]
            totals[above:first] += np.bincount(
                parents[first:end], weights=totals[first:end], minlength=first - above
            )
        return np.bincount(self._tree_links, weights=totals, minlength=self.num_links)

    def pair_router_ports(self) -> np.ndarray:
        """Per-pair sum of router port counts over the route (int16, read-only).

        A router has ``degree + 1`` ports (its links plus the local PE port),
        from this table's own link set.  Every router on a route is counted,
        endpoints included; a self pair counts its own router, an unreachable
        pair is 0.  All integers, so the result is exact in any order.
        """
        if self._pair_ports is None:
            self._build_pair_tables()
        return self._pair_ports

    def pair_hops(self) -> np.ndarray:
        """Per-pair hop counts ``h_ij`` (int16; 0 for self and unreachable pairs)."""
        if self._pair_hops is None:
            self._build_pair_tables()
        return self._pair_hops

    def pair_lengths(self) -> np.ndarray:
        """Per-pair physical route lengths ``d_ij`` (int16; 0 where no route exists)."""
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
        """Lay the route trees out by hop level and derive every per-pair table.

        The one builder behind fresh builds and repairs alike: it reads only
        this table's distances, predecessors and links.
        """
        num_tiles = self.num_tiles
        # A distance is hops + epsilon * length, and epsilon * length < 0.5
        # on every route the check below accepts, so rint recovers the hops.
        hops = np.rint(self._distance)
        hops[~self.reachable_matrix()] = 0
        hops = hops.astype(np.int16).ravel()
        order = np.argsort(hops, kind="stable")
        # Level 1 always exists (maybe empty), so ``starts`` has at least two entries.
        counts = np.bincount(hops, minlength=2)
        level_ends = np.cumsum(counts)
        # Rank of every pair inside its level.
        rank = np.empty(hops.size, dtype=np.int32)
        rank[order] = np.arange(hops.size, dtype=np.int32)
        rank -= (level_ends - counts).astype(np.int32).take(hops)
        # Level 0 holds the self and unreachable pairs; the rest are routed.
        pairs = order[level_ends[0] :].astype(np.int32)
        dst = pairs % num_tiles
        pred = self._predecessors.ravel().take(pairs).astype(np.int32)
        parents = pairs - dst + pred
        if not np.array_equal(hops.take(parents) + 1, hops.take(pairs)):
            raise ValueError(
                "route lengths too long to read hop counts off the distances: "
                f"epsilon {self._LENGTH_EPSILON} times a route length reaches 0.5"
            )
        if self.num_links > np.iinfo(np.int16).max + 1:
            raise OverflowError(f"{self.num_links} link ids do not fit the int16 last-hop table")
        # Dense (tile, tile) -> link lookup; it lives only for this build.
        edge_link = np.full(num_tiles * num_tiles, -1, dtype=np.int16)
        link_ids = np.arange(self.num_links, dtype=np.int16)
        edge_link[self._ends_a * num_tiles + self._ends_b] = link_ids
        edge_link[self._ends_b * num_tiles + self._ends_a] = link_ids
        links = edge_link.take(pred * num_tiles + dst)
        parent_rank = rank.take(parents)
        starts = tuple(int(end) - int(level_ends[0]) for end in level_ends)

        # Top-down, one level at a time: a pair's length and port sum are its
        # parent's plus its own last hop's (level 1's parent is the source).
        ports = np.bincount(
            np.concatenate((self._ends_a, self._ends_b)), minlength=num_tiles
        ).astype(np.int32)
        ports += 1
        lengths = self.link_lengths.astype(np.int32).take(links)
        port_sums = ports.take(dst)
        port_sums[: starts[1]] += ports.take(pred[: starts[1]])
        for level in range(2, len(starts)):
            above, first, end = starts[level - 2], starts[level - 1], starts[level]
            up = parent_rank[first:end]
            lengths[first:end] += lengths[above:first].take(up)
            port_sums[first:end] += port_sums[above:first].take(up)
        for name, values in (("route length", lengths), ("router port sum", port_sums)):
            if values.size and values.max() > np.iinfo(np.int16).max:
                raise OverflowError(f"{name} {values.max()} does not fit an int16 pair table")

        pair_lengths = np.zeros(hops.size, dtype=np.int16)
        pair_lengths[pairs] = lengths
        pair_ports = np.zeros(hops.size, dtype=np.int16)
        pair_ports[pairs] = port_sums
        pair_ports[:: num_tiles + 1] = ports
        for array in (pairs, parent_rank, links, hops, pair_lengths, pair_ports):
            array.setflags(write=False)
        self._tree_pairs, self._tree_parents, self._tree_links = pairs, parent_rank, links
        self._level_starts = starts
        self._pair_hops, self._pair_lengths, self._pair_ports = hops, pair_lengths, pair_ports


def _segment_ranges(firsts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ``arange(first, first + count)`` runs and each run's start.

    Returns ``(indices, starts)``: ``indices`` lists every run back to back
    and ``starts[i]`` is where run ``i`` begins in it.
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(firsts - starts, counts), starts
