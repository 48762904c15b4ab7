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

* Link weights are ``1 + epsilon * length`` with integer lengths and
  ``epsilon = 2**-10``, so a distance is exactly ``hops + length / 1024``:
  the integer ``q = 1024 * hops + length`` scaled down.  All-pairs
  distances are computed on ``q`` by Floyd–Warshall (one vectorised
  ``min(d, d[k, :, None] + d[k])`` per pivot ``k``) in int16, with a cap of
  ``2**14 - 1`` so that the sum of two entries still fits.  An entry still
  at the cap after the pass is an unreachable pair or a route of 16 hops or
  more; only then is the table redone in int32.  Integer arithmetic is
  exact in any order, so the result, stored as float32 ``q / 1024`` (exact
  while ``q < 2**24``) with ``inf`` for unreachable pairs, is what any exact
  shortest-path solver would give, byte for byte.
* Predecessors are then derived canonically from the distances
  (:meth:`RoutingTables._canonical_predecessors`): the predecessor of ``v`` on
  the route from ``i`` is the smallest-id neighbour ``u`` with
  ``dist(i, u) + w(u, v) == dist(i, v)``.  Weights and sums of weights are
  exact in binary, distinct ``(hops, length)`` combinations differ by at
  least ``epsilon``, and the tie test is a pure function of the distance
  matrix.  That is what makes :meth:`RoutingTables.incremental_update`
  exact, down to the bytes of the distance matrix.

Pair-granular repair
--------------------
A rewire changes few routes, so a repair updates the parent's integer
distances in place and re-derives only the predecessors that can change:

* removed links change only the rows of the *cut* sources ``C``, whose route
  tree crossed one; every other row keeps its distances, and since links are
  undirected so does its column.  Only the ``C x C`` block is unknown: it is
  seeded with the links inside ``C``, relaxed through every kept source
  ``k`` (``min(block, d[k, C, None] + d[k, C])``) and closed by
  Floyd–Warshall over the pivots in ``C``;
* each added link ``(a, b)`` then updates every pair in closed form,
  ``d = min(d, d[:, a] + w + d[b], d[:, b] + w + d[a])`` (a shortest route
  crosses a new link at most once);
* a repair whose result still holds an entry at the cap falls back to a
  fresh build of the distances;
* only the *affected* sources — whose route tree crosses a removed link, or
  whose distances an added link ties or beats — can change predecessors,
  and inside an affected row a canonical predecessor is re-derived only
  where its inputs changed: the node's distance, a neighbour's distance,
  or its incident links.

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

from repro.noc.design import NocDesign
from repro.noc.geometry import Grid3D
from repro.noc.links import Link, link_ends, link_lengths_array

#: The "no predecessor" sentinel (source itself or unreachable pair).
#: Predecessors are tile ids or this sentinel, so they are stored as int16.
NO_PREDECESSOR = -9999

#: Integer distance kernels: ``(dtype, cap)`` tried in order.  Entries never
#: exceed the cap and the sum of two caps fits the dtype, so a pivot step
#: cannot overflow; an entry at the cap is unreachable or at least that far.
_DISTANCE_CAPS = ((np.int16, 2**14 - 1), (np.int32, 2**30 - 1))


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
    #: ``1 / epsilon``: a distance is the integer ``scale * hops + length``
    #: divided by this scale, and the kernels compute on that integer.
    _LENGTH_SCALE = round(1 / _LENGTH_EPSILON)
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
        """Full fresh build: graph setup, all-pairs distances, canonical routes."""
        self._setup_static(links, num_tiles, grid)
        self._distance = self._fresh_distances()
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
        self._weights = (self._LENGTH_SCALE + self.link_lengths) / self._LENGTH_SCALE
        # Directed edges grouped by head: the in-edges of ``v`` are
        # ``_in_tails[_head_ptr[v]:_head_ptr[v + 1]]``, ascending (the link
        # list is sorted and the sort stable).  Links are undirected, so
        # they are also ``v``'s neighbours.  The weights are dyadic, so
        # float32 holds them exactly.
        tails = np.concatenate((ends_a, ends_b))
        heads = np.concatenate((ends_b, ends_a))
        order = np.argsort(heads, kind="stable")
        head_ptr = np.zeros(num_tiles + 1, dtype=np.int32)
        np.cumsum(np.bincount(heads, minlength=num_tiles), out=head_ptr[1:])
        self._in_tails = tails[order].astype(np.int32)
        self._in_weights = np.concatenate((self._weights, self._weights))[order].astype(np.float32)
        self._head_ptr = head_ptr

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

    def _link_steps(self, cap: int) -> np.ndarray:
        """Integer link weights ``scale + length``, clamped to ``cap``."""
        steps = np.minimum(self._LENGTH_SCALE + self.link_lengths, cap)
        return steps.astype(np.int64)

    def _fresh_distances(self) -> np.ndarray:
        """All-pairs distances by Floyd–Warshall on the integers ``q``.

        Runs in int16 and redoes the table in int32 only when an entry is
        still at the int16 cap: an unreachable pair or a route of 16 hops or
        more.  An entry at the int32 cap is unreachable.
        """
        num_tiles = self.num_tiles
        for dtype, cap in _DISTANCE_CAPS:
            q = np.full((num_tiles, num_tiles), cap, dtype=dtype)
            q[self._ends_a, self._ends_b] = q[self._ends_b, self._ends_a] = self._link_steps(cap)
            np.fill_diagonal(q, 0)
            _floyd_warshall(q)
            if q.max() < cap:
                break
        return self._scaled_distances(q, cap)

    def _scaled_distances(self, q: np.ndarray, cap: int) -> np.ndarray:
        """Float32 distances ``q / scale``, ``inf`` where ``q`` is at the cap."""
        distance = np.multiply(q, np.float32(1 / self._LENGTH_SCALE), dtype=np.float32)
        if q.max() == cap:
            distance[q == cap] = np.inf
        return distance

    def _integer_distances(self, dtype: type, cap: int) -> np.ndarray:
        """This table's distances as integers ``q``, clamped to ``cap``."""
        scaled = self._distance * np.float32(self._LENGTH_SCALE)
        return np.minimum(scaled, cap, out=scaled).astype(dtype)

    def _canonical_predecessors(self, distance_rows: np.ndarray) -> np.ndarray:
        """Derive lexicographic-minimal predecessors from a distance block.

        For every (source row, node ``v``) the predecessor is the smallest-id
        neighbour ``u`` of ``v`` with ``dist(u) + w(u, v) == dist(v)`` (within
        the tie tolerance).  Because edge weights strictly decrease along the
        chain, the walk always terminates at the source.  The result depends
        only on the distances and the graph — not on how the distances were
        computed — which makes routes reproducible across fresh builds and
        incremental repairs.  :meth:`_local_predecessors` applies the same
        test to listed entries only.
        """
        num_sources = distance_rows.shape[0]
        num_tiles = self.num_tiles
        predecessors = np.full((num_sources, num_tiles), num_tiles, dtype=np.int16)
        if self.num_links:
            # Edges sorted by head, so a single reduceat computes, per
            # (source, head), the minimum tail satisfying the tie test.
            tails, weights, head_ptr = self._in_tails, self._in_weights, self._head_ptr
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
        tails, weights, head_ptr = self._in_tails, self._in_weights, self._head_ptr
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
        tails, head_ptr = self._in_tails, self._head_ptr
        nodes = moved % num_tiles
        degrees = head_ptr[nodes + 1] - head_ptr[nodes]
        edges, _ = _segment_ranges(head_ptr[nodes], degrees)
        stale.ravel()[np.repeat(moved - nodes, degrees) + tails[edges]] = True
        stale[:, endpoints] = True
        return np.flatnonzero(stale)

    def _repaired_distances(
        self, parent: "RoutingTables", cut: np.ndarray, added: np.ndarray
    ) -> np.ndarray:
        """The parent's distances repaired in place for this table's links.

        Removed links change only the rows (and, links being undirected, the
        columns) of the ``cut`` sources, whose route tree used one: their
        block is rebuilt from the links inside it and the routes through
        every kept source, then closed by Floyd–Warshall over its own
        pivots.  Each ``added`` link then relaxes every pair through
        itself.  A result with an entry at the cap falls back to a fresh
        build.
        """
        dtype, cap = _DISTANCE_CAPS[0]
        q = parent._integer_distances(dtype, cap)
        steps = self._link_steps(cap)
        sources = np.flatnonzero(cut)
        if sources.size:
            position = np.cumsum(cut) - 1
            inside = cut[self._ends_a] & cut[self._ends_b]
            a, b = position[self._ends_a[inside]], position[self._ends_b[inside]]
            block = np.full((sources.size, sources.size), cap, dtype=dtype)
            block[a, b] = block[b, a] = steps[inside]
            np.fill_diagonal(block, 0)
            # A route through a kept source ``k`` costs ``q[k, i] + q[k, j]``
            # from ``k``'s unchanged row.  ``np.ix_`` keeps the gathered rows
            # contiguous; one kept source at a time beats a 3-D broadcast.
            via = np.empty_like(block)
            for row in q[np.ix_(~cut, sources)]:
                np.add(row[:, None], row, out=via)
                np.minimum(block, via, out=block)
            _floyd_warshall(block)
            q[np.ix_(sources, sources)] = block
        for a, b, step in zip(
            self._ends_a[added].tolist(), self._ends_b[added].tolist(), steps[added].tolist()
        ):
            # Routes i -> a -> b -> j, from rows taken before the update;
            # the transpose gives i -> b -> a -> j.
            via = np.add.outer(np.minimum(q[a] + step, cap), q[b])
            np.minimum(q, via, out=q)
            np.minimum(q, via.T, out=q)
        if q.max() == cap:
            return self._fresh_distances()
        return self._scaled_distances(q, cap)

    def incremental_update(self, new_links: "Sequence[Link] | Iterable[Link]") -> "RoutingTables":
        """New tables for a changed link set, re-deriving only the routes that change.

        The parent's distances are repaired in place
        (:meth:`_repaired_distances`).  A source's predecessors can change
        only when its canonical route tree crosses a removed link, or when
        an added link strictly improves — or ties — the distance to one of
        its endpoints (a tie can change the canonical predecessor choice).
        Every other source provably keeps identical distances and canonical
        routes, so its rows are copied; in an affected row a predecessor is
        re-derived only where its inputs changed (:meth:`_stale_entries`).
        The pair tables are left to the child's own lazy build.  Cached
        tables stay untouched ("repair" returns a new instance), because the
        parent's entry remains live under its own topology key.

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

        distance = updated._repaired_distances(self, cut, added)
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
        """Bytes held by this table's numpy arrays."""
        return sum(value.nbytes for value in vars(self).values() if isinstance(value, np.ndarray))

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
                f"1/{self._LENGTH_SCALE} of a route length reaches 0.5"
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


def _floyd_warshall(q: np.ndarray) -> None:
    """Floyd–Warshall in place on a symmetric matrix of capped integer distances.

    Every entry is at most the cap and two caps sum within the dtype, so
    ``q[k, :, None] + q[k]`` cannot overflow and the minimum stays within the
    cap.  The matrix is symmetric, so row ``k`` stands in for column ``k``.
    """
    via = np.empty_like(q)
    for row in q:
        np.add(row[:, None], row, out=via)
        np.minimum(q, via, out=q)


def _segment_ranges(firsts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ``arange(first, first + count)`` runs and each run's start.

    Returns ``(indices, starts)``: ``indices`` lists every run back to back
    and ``starts[i]`` is where run ``i`` begins in it.
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(firsts - starts, counts), starts
