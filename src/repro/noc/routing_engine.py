"""Cross-design route cache with incremental updates (the RoutingEngine).

Per-design all-pairs Dijkstra dominates batch evaluation, yet most designs an
optimiser scores are one *move* away from a design it already scored: EA
children produced by ``swap_pe`` / ``swap_llc`` keep the parent's link set
unchanged, and ``rewire_link``-style moves touch only a couple of links.  The
:class:`RoutingEngine` exploits this by owning a route cache keyed on the
*link set alone* (routing never depends on the PE placement):

* **hit** — the design's link tuple is already cached; the full
  :class:`~repro.noc.routing.RoutingTables` (incidence matrices included) is
  shared read-only.  Every placement-only move lands here for free.
* **incremental repair** — the design carries a
  :class:`~repro.noc.design.MoveDelta` whose parent topology is cached and
  whose link delta is small; the parent's tables are repaired via
  :meth:`~repro.noc.routing.RoutingTables.incremental_update`, re-running
  Dijkstra only for sources whose route tree crosses a changed link.
* **miss** — anything else gets a fresh build.

Move deltas are *hints*, never trusted for correctness: the repair path
recomputes the actual link diff between the cached parent tables and the
design, so a stale or missing annotation can only cost a fresh build.  All
three outcomes produce bit-identical tables (see the routing-engine property
suite), which is what lets the evaluator's ``routing_cache`` flag toggle the
engine without perturbing any objective value.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.noc.design import NocDesign, move_delta_of
from repro.noc.geometry import Grid3D
from repro.noc.links import Link
from repro.noc.route_store import RouteStore
from repro.noc.routing import RoutingTables


class RoutingEngine:
    """Link-set-keyed LRU cache of :class:`RoutingTables` with delta repair.

    Parameters
    ----------
    grid:
        The tile grid shared by every design the engine serves.
    cache_size:
        Maximum number of cached topologies (LRU eviction; must be >= 1).
    incremental:
        When False, cache misses always rebuild from scratch even when a
        usable parent delta is available (hits still apply).
    max_repair_fraction:
        A delta changing more than this fraction of the design's links falls
        back to a fresh build — with that many changed links most sources are
        affected anyway, so the repair bookkeeping would only add overhead.
        ``0.0`` disables incremental repairs entirely (every non-hit is a
        fresh build); any positive fraction always admits elementary
        two-link rewires.
    store:
        Optional :class:`~repro.noc.route_store.RouteStore` consulted on
        cache misses before rebuilding, and fed with fresh builds.  The store
        crosses process boundaries (campaign-cell workers), turning each
        sibling process's cold build into a single file read;
        loaded tables are bit-identical to fresh builds, so attaching a store
        never changes a route.
    """

    def __init__(
        self,
        grid: Grid3D,
        cache_size: int = 256,
        incremental: bool = True,
        max_repair_fraction: float = 0.5,
        store: "RouteStore | None" = None,
    ):
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if not (0.0 <= max_repair_fraction <= 1.0):
            raise ValueError("max_repair_fraction must lie in [0, 1]")
        self.grid = grid
        self.cache_size = int(cache_size)
        self.incremental = incremental
        self.max_repair_fraction = max_repair_fraction
        self._store = store
        self._cache: OrderedDict[tuple[Link, ...], RoutingTables] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.incremental_repairs = 0
        self.store_hits = 0
        self.store_saves = 0

    def __len__(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def tables(self, design: NocDesign) -> RoutingTables:
        """Routing tables for ``design``, cached across designs by link set.

        The returned tables are shared: they must be treated as read-only
        (all public accessors already return read-only views).
        """
        key = design.links
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            self._cache.move_to_end(key)
            return cached
        tables = self._build(design)
        self._remember(key, tables)
        return tables

    def _remember(self, key: tuple[Link, ...], tables: RoutingTables) -> None:
        self._cache[key] = tables
        if len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def tables_for_links(self, links: tuple[Link, ...]) -> "RoutingTables | None":
        """The cached tables for a link tuple, or None (no build, no counting)."""
        return self._cache.get(links)

    def attach_store(self, store: "RouteStore | None") -> None:
        """Attach (or detach, with ``None``) a disk-backed warm-start store."""
        self._store = store

    def _build(self, design: NocDesign) -> RoutingTables:
        delta = move_delta_of(design)
        if (
            self.incremental
            and self.max_repair_fraction > 0.0
            and delta is not None
            and delta.parent_links != design.links
        ):
            parent = self._cache.get(delta.parent_links)
            if parent is None and self._store is not None:
                # A sibling process may have solved the parent already; a
                # store hit turns this miss into an incremental repair.
                parent = self._store.load(
                    delta.parent_links, design.num_tiles, self.grid
                )
                if parent is not None:
                    self.store_hits += 1
                    self._remember(delta.parent_links, parent)
            if parent is not None:
                changed = len(frozenset(parent.links).symmetric_difference(design.links))
                # Elementary rewires change 2 links; never price them out on
                # small designs where the fraction alone would round to < 2.
                budget = max(2, int(self.max_repair_fraction * max(1, design.num_links)))
                if changed <= budget:
                    self.incremental_repairs += 1
                    return parent.incremental_update(design.links)
        self.misses += 1
        if self._store is not None:
            stored = self._store.load(design.links, design.num_tiles, self.grid)
            if stored is not None:
                self.store_hits += 1
                return stored
        tables = RoutingTables(design, self.grid)
        if self._store is not None and self._store.save(tables):
            self.store_saves += 1
        return tables

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def requests(self) -> int:
        """Total number of :meth:`tables` calls served."""
        return self.hits + self.misses + self.incremental_repairs

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the cache without any Dijkstra."""
        requests = self.requests
        return self.hits / requests if requests else 0.0

    def stats(self) -> dict[str, "int | float"]:
        """Counters snapshot (used by evaluator reports and campaign shards).

        Store counters appear only when a warm-start store is attached, so
        store-less engines keep their historical stats shape.
        """
        counters: dict[str, "int | float"] = {
            "hits": self.hits,
            "misses": self.misses,
            "incremental_repairs": self.incremental_repairs,
            "requests": self.requests,
            "hit_rate": self.hit_rate,
            "cached_topologies": len(self._cache),
        }
        if self._store is not None:
            counters["store_hits"] = self.store_hits
            counters["store_saves"] = self.store_saves
        return counters

    def clear(self) -> None:
        """Drop every cached topology (counters are kept)."""
        self._cache.clear()


class RoutingEnginePool:
    """Grid-keyed pool of shared :class:`RoutingEngine` instances.

    A campaign runs many cells (algorithm x application x scenario) over the
    same platform, and every cell re-routes topologies its siblings already
    solved — the initial random population alone is a fresh all-pairs build
    per design, per cell.  Handing every inline cell the *same* engine (one
    per grid, via this pool) turns those rebuilds into cache hits.  Sharing
    is safe because cached tables are read-only and bit-identical to fresh
    builds; only the hit/miss counters can differ between a shared and a
    cold-start campaign.

    Per-cell accounting still works: the evaluator snapshots the engine's
    counters at construction and reports deltas, so each shard records only
    its own traffic (see ``ObjectiveEvaluator.routing_cache_stats``).

    Parameters
    ----------
    cache_size:
        LRU capacity of every engine the pool creates.
    store:
        Optional :class:`~repro.noc.route_store.RouteStore` attached to every
        engine, warm-starting even the pool's first cell from a previous
        campaign run's builds.
    """

    def __init__(self, cache_size: int = 256, store: "RouteStore | None" = None):
        self.cache_size = int(cache_size)
        self._store = store
        self._engines: dict[tuple[int, int], RoutingEngine] = {}

    def __len__(self) -> int:
        return len(self._engines)

    def engine_for(self, grid: Grid3D) -> RoutingEngine:
        """The shared engine for a tile grid (created on first request)."""
        key = (grid.n, grid.layers)
        engine = self._engines.get(key)
        if engine is None:
            engine = RoutingEngine(grid, cache_size=self.cache_size, store=self._store)
            self._engines[key] = engine
        return engine

    def stats(self) -> dict[str, "int | float"]:
        """Pool-wide counter totals across every engine (sorted grid order)."""
        totals: dict[str, "int | float"] = {
            "engines": len(self._engines),
            "hits": 0,
            "misses": 0,
            "incremental_repairs": 0,
            "requests": 0,
            "cached_topologies": 0,
        }
        for key in sorted(self._engines):
            stats = self._engines[key].stats()
            for name in ("hits", "misses", "incremental_repairs", "requests", "cached_topologies"):
                totals[name] += stats[name]
            for name in ("store_hits", "store_saves"):
                if name in stats:
                    totals[name] = totals.get(name, 0) + stats[name]
        requests = totals["requests"]
        totals["hit_rate"] = totals["hits"] / requests if requests else 0.0
        return totals
