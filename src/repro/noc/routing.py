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
  :meth:`RoutingTables.incremental_update` exact: sources whose route tree
  does not cross a changed link provably keep identical routes, so only the
  affected sources re-run Dijkstra.

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
  derived from ``P`` and the table's own degrees, so no pair-router
  incidence is stored.
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
from scipy.sparse.csgraph import shortest_path

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
        self._distance = shortest_path(self._graph, method="D", directed=False)
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
        # Directed edge lists (both orientations) shared by the graph and the
        # canonical predecessor derivation.
        self._edge_u = np.concatenate((ends_a, ends_b))
        self._edge_v = np.concatenate((ends_b, ends_a))
        self._edge_w = np.concatenate((self._weights, self._weights))
        self._graph = csr_matrix(
            (self._edge_w, (self._edge_u, self._edge_v)),
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

    def _canonical_predecessors(self, distance_rows: np.ndarray) -> np.ndarray:
        """Derive lexicographic-minimal predecessors from a distance block.

        For every (source row, node ``v``) the predecessor is the smallest-id
        neighbour ``u`` of ``v`` with ``dist(u) + w(u, v) == dist(v)`` (within
        the tie tolerance).  Because edge weights strictly decrease along the
        chain, the walk always terminates at the source.  The result depends
        only on the distances and the graph — not on how Dijkstra happened to
        visit equal-cost alternatives — which makes routes reproducible across
        fresh builds and incremental repairs.
        """
        num_sources = distance_rows.shape[0]
        num_tiles = self.num_tiles
        predecessors = np.full((num_sources, num_tiles), num_tiles, dtype=np.int16)
        if self.num_links:
            # Sort directed edges by head node so a single reduceat computes,
            # per (source, head), the minimum tail satisfying the tie test.
            order = np.argsort(self._edge_v, kind="stable")
            tails = self._edge_u[order]
            heads = self._edge_v[order]
            weights = self._edge_w[order]
            # inf - inf (both endpoints unreachable) yields nan, which the
            # comparison correctly rejects — suppress the noise warning.
            with np.errstate(invalid="ignore"):
                candidate = distance_rows[:, tails] + weights[None, :]
                on_route = np.abs(candidate - distance_rows[:, heads]) <= self._TIE_TOLERANCE
            tail_ids = np.where(on_route, tails[None, :], num_tiles)
            starts = np.flatnonzero(np.r_[True, heads[1:] != heads[:-1]])
            minima = np.minimum.reduceat(tail_ids, starts, axis=1)
            predecessors[:, heads[starts]] = minima
        predecessors[predecessors == num_tiles] = NO_PREDECESSOR
        return predecessors

    def incremental_update(self, new_links: "Sequence[Link] | Iterable[Link]") -> "RoutingTables":
        """New tables for a changed link set, re-routing only affected sources.

        A source must be re-run when its canonical route tree crosses a
        removed link, or when an added link strictly improves — or ties —
        the distance to one of its endpoints (a tie can change the canonical
        predecessor choice).  Every other source provably keeps identical
        distances and canonical routes, so its rows are copied.  Cached
        tables stay untouched ("repair" returns a new instance), because the
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
        affected = (
            (self._predecessors[:, ends_b] == ends_a) | (self._predecessors[:, ends_a] == ends_b)
        ).any(axis=1)
        # Added links: sources one of them improves or ties.
        dist_a = self._distance[:, updated._ends_a[added]]
        dist_b = self._distance[:, updated._ends_b[added]]
        weight = updated._weights[added]
        relevant = (dist_a + weight <= dist_b + self._TIE_TOLERANCE) | (
            dist_b + weight <= dist_a + self._TIE_TOLERANCE
        )
        # inf <= inf is a numpy truth but a no-op for routing: the new
        # link cannot connect tiles that are both unreachable.
        relevant &= ~(np.isinf(dist_a) & np.isinf(dist_b))
        affected |= relevant.any(axis=1)

        distance = self._distance.copy()
        predecessors = self._predecessors.copy()
        rows = np.flatnonzero(affected)
        if rows.size:
            distance[rows] = shortest_path(
                updated._graph, method="D", directed=False, indices=rows
            )
            predecessors[rows] = updated._canonical_predecessors(distance[rows])
        updated._distance = distance
        updated._predecessors = predecessors
        updated._reset_lazy()
        # Adoption copies surviving parent rows block-wise, so it wins
        # whenever any source keeps its routes; with every source re-routed
        # there is nothing to copy and the lazy sweep builds the same arrays.
        if rows.size < self.num_tiles:
            updated._adopt_pair_tables(self, affected)
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

        ``bincount`` adds into each link in pair order, the order scipy's
        ``P.T @ w`` uses, so the result is bit-identical to the sparse
        product.
        """
        _, links = self.pair_link_pattern()
        weights = np.repeat(pair_weights, self.pair_hops())
        return np.bincount(links, weights=weights, minlength=self.num_links)

    def pair_router_ports(self) -> np.ndarray:
        """Per-pair sum of router port counts over the route (int32, read-only).

        A router has ``degree + 1`` ports (its links plus the local PE port),
        from this table's own link set.  Every router on a route is counted,
        endpoints included; a self pair counts its own router, an unreachable
        pair is 0.  Each interior router touches two of the route's links and
        each endpoint one, so the sum is half of the links' end-port sums plus
        both endpoints' ports — all integers, so the result is exact.
        """
        if self._pair_ports is None:
            ends = np.concatenate((self._ends_a, self._ends_b))
            ports = np.bincount(ends, minlength=self.num_tiles) + 1
            indptr, links = self.pair_link_pattern()
            route_sums = np.zeros(links.size + 1, dtype=np.int64)
            np.cumsum((ports[self._ends_a] + ports[self._ends_b])[links], out=route_sums[1:])
            doubled = route_sums[indptr[1:]] - route_sums[indptr[:-1]]
            doubled += np.add.outer(ports, ports).ravel()
            doubled[~self.reachable_pairs()] = 0
            self._pair_ports = (doubled // 2).astype(np.int32)
            self._pair_ports.setflags(write=False)
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
        self._route_pair_tables(np.ones(self.num_tiles, dtype=bool))

    def _adopt_pair_tables(self, parent: "RoutingTables", affected: np.ndarray) -> None:
        """Repair the batch structures from a parent's, re-sweeping only affected rows.

        An unaffected source keeps its canonical routes, and those routes
        never traverse a removed link, so its rows of ``P`` survive verbatim
        with the link ids remapped to the new link indexing.  No-op (tables
        stay lazy) when the parent never built its batch structures.  Router
        port sums are never adopted: a rewire changes router degrees on
        routes that did not move, so the child derives its own.
        """
        if parent._pair_links is None:
            return
        # Both key arrays are ascending, so surviving parent links map to new
        # indices with one searchsorted (no per-link Python lookups).
        if self.num_links:
            positions = np.searchsorted(self._link_keys, parent._link_keys)
            positions = np.minimum(positions, self.num_links - 1)
            old_to_new = np.where(self._link_keys[positions] == parent._link_keys, positions, -1)
        else:
            old_to_new = np.full(parent.num_links, -1, dtype=np.int64)
        self._route_pair_tables(affected, parent.pair_link_pattern(), old_to_new)

    def _route_pair_tables(
        self,
        affected: np.ndarray,
        parent: "tuple[np.ndarray, np.ndarray] | None" = None,
        link_remap: "np.ndarray | None" = None,
    ) -> None:
        """Build ``P``'s pattern, hops and lengths: sweep affected sources, copy the rest.

        The one builder behind fresh builds (every source affected, no
        parent) and adoption (rows of unaffected sources come from the
        ``parent`` pattern, link ids renumbered through ``link_remap``).
        """
        steps = self._route_steps(np.flatnonzero(affected))
        indptr, links = self._route_order_pattern(steps, affected, parent, link_remap)
        # Minimal routes are simple paths, so h_ij is exactly the number of
        # entries in the pair's row.
        hops = np.diff(indptr).astype(np.int16)
        # Link lengths are integer-valued floats, so the running sum and its
        # differences are exact (identical to any other summation order).
        route_lengths = np.zeros(links.size + 1, dtype=np.float64)
        np.cumsum(self.link_lengths[links], out=route_lengths[1:])
        lengths = route_lengths[indptr[1:]] - route_lengths[indptr[:-1]]
        for array in (indptr, links, hops, lengths):
            array.setflags(write=False)
        self._pair_indptr, self._pair_links = indptr, links
        self._pair_hops, self._pair_lengths = hops, lengths

    def _route_steps(self, sources: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Route reconstruction sweep for every pair whose source is in ``sources``.

        Walks all destination-to-source chains simultaneously: iteration ``s``
        advances every still-active pair one predecessor step and emits the
        link of the traversed ``(prev, cur)`` edge.  The loop runs
        ``max_ij h_ij`` times (the network diameter), with all per-pair work
        vectorized.

        Returns a list of ``(pair rows, link ids)`` chunks with *global* flat
        pair rows (``src * num_tiles + dst``).  Chunk ``s`` holds link ``s``
        of each listed row in route order, from the destination back to the
        source, so a row lists the last hop first.  Each chunk lists a row at
        most once, in ascending row order.
        """
        num_tiles = self.num_tiles
        src = np.repeat(sources, num_tiles)
        dst = np.tile(np.arange(num_tiles), len(sources))
        rows = src * num_tiles + dst
        reachable = np.isfinite(self._distance[src, dst])
        # Dense (tile, tile) -> link lookup, so each step maps its traversed
        # edges to links with one gather.  It lives only for this sweep.
        edge_link = np.full((num_tiles, num_tiles), -1, dtype=np.int32)
        link_ids = np.arange(self.num_links, dtype=np.int32)
        edge_link[self._ends_a, self._ends_b] = link_ids
        edge_link[self._ends_b, self._ends_a] = link_ids

        steps: list[tuple[np.ndarray, np.ndarray]] = []
        cur = dst.copy()
        active = np.nonzero(reachable & (src != dst))[0]
        while active.size:
            prev = self._predecessors[src[active], cur[active]]
            steps.append((rows[active], edge_link[prev, cur[active]]))
            cur[active] = prev
            active = active[prev != src[active]]
        return steps

    def _route_order_pattern(
        self,
        steps: list[tuple[np.ndarray, np.ndarray]],
        affected: np.ndarray,
        parent: "tuple[np.ndarray, np.ndarray] | None" = None,
        link_remap: "np.ndarray | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Route-order int32 CSR pattern from swept steps, plus rows kept from a parent.

        Entry ``s`` of a swept row goes straight into slot ``indptr[row] +
        s``, so every row lists its links in route order and no sort is
        needed.  With a ``parent`` pattern (itself route-ordered), the rows
        of sources not in ``affected`` are copied from it: all ``num_tiles``
        rows of a source are consecutive in the source-major row order, so
        each run of unaffected sources is one slice copy, with link ids
        renumbered through ``link_remap``.  A repaired table therefore holds
        the same arrays as a fresh build byte for byte.
        """
        num_tiles = self.num_tiles
        num_pairs = num_tiles * num_tiles
        counts = np.zeros(num_pairs, dtype=np.int32)
        for rows, _ in steps:
            counts[rows] += 1
        if parent is not None:
            parent_indptr, parent_links = parent
            keep_row = np.repeat(~affected, num_tiles)
            counts = np.where(keep_row, np.diff(parent_indptr), counts)
        indptr = np.zeros(num_pairs + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        links = np.empty(int(indptr[-1]), dtype=np.int32)
        if parent is not None:
            unaffected = np.flatnonzero(~affected)
            if unaffected.size:
                breaks = np.flatnonzero(np.diff(unaffected) > 1)
                run_starts = np.r_[unaffected[0], unaffected[breaks + 1]] * num_tiles
                run_ends = (np.r_[unaffected[breaks], unaffected[-1]] + 1) * num_tiles
                for start, end in zip(run_starts.tolist(), run_ends.tolist()):
                    block = parent_links[parent_indptr[start] : parent_indptr[end]]
                    links[indptr[start] : indptr[end]] = link_remap[block]
        row_starts = indptr[:-1]
        for step, (rows, step_links) in enumerate(steps):
            links[row_starts[rows] + step] = step_links
        assert links.size == 0 or links.min() >= 0, (
            "route of an unaffected source crossed a removed link"
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
