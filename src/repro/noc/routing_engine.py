"""Cross-design route cache with incremental updates (the RoutingEngine).

Building a design's all-pairs routes dominates batch evaluation, yet most
designs an optimiser scores are one *move* away from a design it already
scored: EA children produced by ``swap_pe`` / ``swap_llc`` keep the parent's
link set unchanged, and ``rewire_link``-style moves touch only a couple of
links.  The
:class:`RoutingEngine` exploits this by owning a route cache keyed on the
*link set alone* (routing never depends on the PE placement):

* **hit** — the design's link tuple is already cached; the full
  :class:`~repro.noc.routing.RoutingTables` (the route-tree levels and the
  per-pair hops, lengths and router port sums included) is shared
  read-only.  Every placement-only move lands here for free.
* **incremental repair** — the design carries a
  :class:`~repro.noc.design.MoveDelta` whose parent topology is cached and
  whose link delta is small; the parent's tables are repaired via
  :meth:`~repro.noc.routing.RoutingTables.incremental_update`.  Only sources
  whose route tree a changed link touches get new distances, and only their
  predecessors whose inputs changed are re-derived; the child's route-tree
  levels and pair tables are then built from its own predecessors, as on a
  fresh build.
* **miss** — anything else gets a fresh build.

The cache is bounded by a table count, ``max_tables``, because reuse is
counted in tables and looks alike on every grid.  The LRU stack distance of a
hit (distinct tables used since that link set's last use), seed 3:

=====================================  ========  =====  ===============
Search                                 Distinct  Hits   Hits within 64
=====================================  ========  =====  ===============
MOELA paper settings, 64 tiles, 3,000  1,299     1,680  1,640
MOELA reduced, 64 tiles, 1,500         923       552    545
NSGA-II, 64 tiles, 1,500               1,254     51     29
MOOS, 256 tiles, 1,500                 419       1,082  1,081
=====================================  ========  =====  ===============

A table's bytes grow with the square of the tile count (0.098 MiB at 64
tiles, 1.47 MiB at 256), so the 96 MiB byte budget this count replaced kept
about 950 64-tile tables that were almost never reused.  Sweeping the cap
over 32, 64 and 128 on these four searches gave every front bit-identical;
64 is the smallest cap that keeps the 256-tile MOOS search at its 17
misses (32 tables: 25).  It holds 6.3 MiB at 64 tiles and 94 MiB at 256,
and cuts the peak RSS of MOELA at the paper's settings from 180 to 86 MB.
The engine builds a new table's pair tables before it caches it (every
table it serves is scored at once anyway), so the routing layer owns all
table building.  Least recently used tables are evicted once more than
``max_tables`` are cached; the newest table always stays.

Move deltas are *hints*, never trusted for correctness: the repair path
recomputes the actual link diff between the cached parent tables and the
design, so a stale or missing annotation can only cost a fresh build.  All
three outcomes produce bit-identical tables (see the routing-engine property
suite), so evaluation keeps the engine on: scoring a design on a new
evaluator, whose engine is empty, gives the same objective values.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.noc.design import NocDesign, move_delta_of
from repro.noc.geometry import Grid3D
from repro.noc.links import Link
from repro.noc.routing import RoutingTables
from repro.utils.validation import require_count, require_probability


class RoutingEngine:
    """Link-set-keyed LRU cache of :class:`RoutingTables` with delta repair.

    Parameters
    ----------
    grid:
        The tile grid shared by every design the engine serves.
    max_tables:
        Number of tables the cache keeps (LRU eviction); an integer >= 1.
        The default of 64 keeps nearly every table a search reuses, at
        64 tiles (0.1 MiB per table) and at 256 (1.47 MiB per table).
    max_repair_fraction:
        A delta changing more than this fraction of the design's links falls
        back to a fresh build.  The default sits at the measured break-even:
        at 64 tiles (144 links) a repair beats a fresh build at 2 and 4
        changed links and loses from about 6 on, so crossover children,
        which change 40 or more links, are built fresh.  ``0.0`` disables
        incremental repairs entirely (every non-hit is a fresh build); any
        positive fraction always admits elementary two-link rewires.
    """

    def __init__(
        self,
        grid: Grid3D,
        max_tables: int = 64,
        max_repair_fraction: float = 0.04,
    ):
        self.grid = grid
        self.max_tables = require_count(max_tables, "max_tables", 1)
        self.max_repair_fraction = require_probability(max_repair_fraction, "max_repair_fraction")
        self._cache: OrderedDict[tuple[Link, ...], RoutingTables] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.incremental_repairs = 0

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
        # Every served table is scored at once: build its pair tables here
        # (any accessor builds them all), inside the routing layer.
        tables.pair_lengths()
        self._cache[key] = tables
        if len(self._cache) > self.max_tables:
            self._cache.popitem(last=False)
        return tables

    def _build(self, design: NocDesign) -> RoutingTables:
        delta = move_delta_of(design)
        if (
            self.max_repair_fraction > 0.0
            and delta is not None
            and delta.parent_links != design.links
        ):
            parent = self._cache.get(delta.parent_links)
            if parent is not None:
                changed = len(frozenset(parent.links).symmetric_difference(design.links))
                # Elementary rewires change 2 links; never price them out on
                # small designs where the fraction alone would round to < 2.
                budget = max(2, int(self.max_repair_fraction * max(1, design.num_links)))
                if changed <= budget:
                    self.incremental_repairs += 1
                    return parent.incremental_update(design.links)
        self.misses += 1
        return RoutingTables(design, self.grid)

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def requests(self) -> int:
        """Total number of :meth:`tables` calls served."""
        return self.hits + self.misses + self.incremental_repairs

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the cache, with no table built or repaired."""
        requests = self.requests
        return self.hits / requests if requests else 0.0

    def stats(self) -> dict[str, "int | float"]:
        """Counters plus the cache's size gauges (used by evaluator reports and campaign shards)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "incremental_repairs": self.incremental_repairs,
            "requests": self.requests,
            "hit_rate": self.hit_rate,
            "cached_topologies": len(self._cache),
            "cached_bytes": sum(tables.nbytes for tables in self._cache.values()),
        }
