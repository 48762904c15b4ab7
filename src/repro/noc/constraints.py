"""Constraint checking and feasible-design generation.

Section III of the paper defines the feasibility constraints of the design
problem:

1. every tile must be able to reach every other tile (connectivity);
2. the total number of links is fixed (planar and vertical budgets);
3. planar links are at most ``max_planar_length`` units long and every router
   has at most ``max_router_degree`` links attached;
4. at most one vertical link exists between vertically adjacent tiles (links
   between non-adjacent layers or diagonal links are not allowed);
5. LLC tiles must sit on the perimeter of their die (memory-controller
   interfacing).

Repairing an infeasible design lives in :mod:`repro.noc.repair`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from repro.noc.design import NocDesign
from repro.noc.links import (
    Link,
    LinkKind,
    candidate_links,
    candidate_planar_links,
    candidate_vertical_links,
    feasible_link_set,
    link_kind,
)
from repro.noc.platform import PEType, PlatformConfig
from repro.utils.rng import BulkIntegers, RngLike, ensure_rng

#: Violation severities.  ``fatal`` marks structural-identity breakage (wrong
#: tile count, placement not a permutation) that no link/placement operator
#: can repair; every other constraint is a repairable ``error``.
SEVERITY_FATAL = "fatal"
SEVERITY_ERROR = "error"

_SEVERITY_RANK = {SEVERITY_FATAL: 0, SEVERITY_ERROR: 1}


def _canonical_value(value: Any) -> Any:
    """Normalise a detail value into plain, hashable, JSON-friendly data.

    Links become ``(a, b)`` endpoint tuples, numpy scalars become Python ints
    and floats, and nested sequences are canonicalised recursively so two
    reports built from equal designs compare (and serialise) identically.
    """
    if isinstance(value, Link):
        return (int(value.a), int(value.b))
    if isinstance(value, (np.integer, np.bool_)):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_value(item) for item in value)
    return value


def violation_details(**values: Any) -> tuple[tuple[str, Any], ...]:
    """Canonical machine-readable detail pairs, sorted by key.

    Details are stored as a sorted tuple of ``(key, value)`` pairs rather
    than a dict so violations stay frozen/hashable and two reports over the
    same design are structurally identical (REP003: no dict/set iteration
    order leaks into serialised output).
    """
    return tuple(sorted((key, _canonical_value(value)) for key, value in values.items()))


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    return value


@dataclass(frozen=True)
class ConstraintViolation:
    """A single constraint violation.

    ``code`` is a stable machine-readable identifier, ``severity`` is one of
    :data:`SEVERITY_FATAL` / :data:`SEVERITY_ERROR`, and ``details`` carries
    the offending tiles/links/budget deltas as canonical ``(key, value)``
    pairs (see :func:`violation_details`) so the directed repair walk can act
    on a violation without re-parsing its message.
    """

    code: str
    message: str
    severity: str = SEVERITY_ERROR
    details: tuple[tuple[str, Any], ...] = ()

    def detail(self, key: str, default: Any = None) -> Any:
        """Look up one detail value by key."""
        for name, value in self.details:
            if name == key:
                return value
        return default

    def to_dict(self) -> dict[str, Any]:
        """JSON representation (details become a key-sorted object)."""
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "details": {key: _jsonable(value) for key, value in self.details},
        }

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


def _violation_sort_key(violation: ConstraintViolation) -> tuple:
    return (
        _SEVERITY_RANK.get(violation.severity, len(_SEVERITY_RANK)),
        violation.code,
        violation.message,
    )


@dataclass(frozen=True)
class ViolationReport:
    """Structured feasibility verdict for one design on one platform.

    Violations are held in deterministic order (severity rank, then code,
    then message), so the report of a given design is a pure function of the
    design and platform: building it twice yields byte-identical
    :meth:`to_json` output.
    """

    platform: str
    num_tiles: int
    num_links: int
    violations: tuple[ConstraintViolation, ...]

    @property
    def feasible(self) -> bool:
        """True when the design satisfies every constraint."""
        return not self.violations

    @property
    def fatal(self) -> bool:
        """True when any violation is unrepairable (structural identity broken)."""
        return any(v.severity == SEVERITY_FATAL for v in self.violations)

    @property
    def codes(self) -> tuple[str, ...]:
        """Violation codes in report order (duplicates preserved)."""
        return tuple(v.code for v in self.violations)

    def by_code(self, code: str) -> tuple[ConstraintViolation, ...]:
        """All violations carrying ``code``, in report order."""
        return tuple(v for v in self.violations if v.code == code)

    def to_dict(self) -> dict[str, Any]:
        """JSON representation of the full report."""
        return {
            "platform": self.platform,
            "num_tiles": self.num_tiles,
            "num_links": self.num_links,
            "feasible": self.feasible,
            "violations": [v.to_dict() for v in self.violations],
        }

    def to_json(self) -> str:
        """Canonical compact JSON encoding (byte-identical for equal reports)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def format(self) -> str:
        """Multi-line human-readable rendering of the report."""
        header = (
            f"design on {self.platform}: {self.num_tiles} tiles, {self.num_links} links — "
            + ("feasible" if self.feasible else f"{len(self.violations)} violation(s)")
        )
        lines = [header]
        for violation in self.violations:
            lines.append(f"  {violation.severity:<5} [{violation.code}] {violation.message}")
            for key, value in violation.details:
                lines.append(f"        {key} = {_jsonable(value)}")
        return "\n".join(lines)


class InfeasibleDesignError(ValueError):
    """Raised by :meth:`ConstraintChecker.check` for infeasible designs.

    Subclasses ``ValueError`` and keeps the historical
    ``"infeasible design: ..."`` message prefix, so callers that matched on
    the string keep working; new callers should catch this type and read the
    structured :attr:`report` instead.
    """

    def __init__(self, report: ViolationReport):
        self.report = report
        details = "; ".join(str(v) for v in report.violations)
        super().__init__(f"infeasible design: {details}")


def is_connected(design: NocDesign) -> bool:
    """True when the link placement connects every tile to every other tile."""
    if design.num_tiles == 0:
        return True
    adjacency = design.adjacency()
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return len(seen) == design.num_tiles


def connected_components(design: NocDesign) -> list[list[int]]:
    """Tile sets of the connected components, each sorted, ordered by smallest tile."""
    adjacency = design.adjacency()
    seen: set[int] = set()
    components: list[list[int]] = []
    for start in range(design.num_tiles):
        if start in seen:
            continue
        stack = [start]
        component = []
        seen.add(start)
        while stack:
            node = stack.pop()
            component.append(node)
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        components.append(sorted(component))
    return components


class ConstraintChecker:
    """Validate designs against the platform constraints of Section III."""

    def __init__(self, config: PlatformConfig):
        self.config = config
        self.grid = config.grid

    def violations(self, design: NocDesign) -> list[ConstraintViolation]:
        """Return every constraint violation of ``design`` (empty list == feasible).

        Violations are returned in the deterministic report order (severity
        rank, code, message) — see :meth:`report`.
        """
        return list(self.report(design).violations)

    def report(self, design: NocDesign) -> ViolationReport:
        """Structured feasibility report for ``design`` (pure and deterministic)."""
        found: list[ConstraintViolation] = []
        found.extend(self._placement_violations(design))
        found.extend(self._link_violations(design))
        if not is_connected(design):
            components = connected_components(design)
            main = components[0] if components else []
            stranded = tuple(
                tile for component in components[1:] for tile in component
            )
            found.append(
                ConstraintViolation(
                    "connectivity",
                    "the link placement is not a connected network",
                    details=violation_details(
                        num_components=len(components),
                        component_sizes=tuple(len(c) for c in components),
                        main_component_size=len(main),
                        stranded_tiles=tuple(sorted(stranded)),
                    ),
                )
            )
        return ViolationReport(
            platform=self.config.name,
            num_tiles=design.num_tiles,
            num_links=design.num_links,
            violations=tuple(sorted(found, key=_violation_sort_key)),
        )

    def is_feasible(self, design: NocDesign) -> bool:
        """True when the design satisfies every constraint."""
        return not self.report(design).violations

    def check(self, design: NocDesign) -> None:
        """Raise :class:`InfeasibleDesignError` if the design is infeasible.

        The exception subclasses ``ValueError`` (the historical contract) and
        carries the structured :class:`ViolationReport` as ``.report``.
        """
        report = self.report(design)
        if report.violations:
            raise InfeasibleDesignError(report)

    # ------------------------------------------------------------------ #
    # Individual checks
    # ------------------------------------------------------------------ #
    def _placement_violations(self, design: NocDesign) -> list[ConstraintViolation]:
        config = self.config
        found: list[ConstraintViolation] = []
        if design.num_tiles != config.num_tiles:
            found.append(
                ConstraintViolation(
                    "placement-size",
                    f"placement has {design.num_tiles} tiles, platform has {config.num_tiles}",
                    severity=SEVERITY_FATAL,
                    details=violation_details(
                        num_tiles=design.num_tiles, expected=config.num_tiles
                    ),
                )
            )
            return found
        placement = design.placement_array()
        if sorted(placement.tolist()) != list(range(config.num_tiles)):
            ids = [int(p) for p in placement]
            counts: dict[int, int] = {}
            for pe_id in ids:
                counts[pe_id] = counts.get(pe_id, 0) + 1
            duplicates = tuple(sorted(pe for pe, n in counts.items() if n > 1))
            missing = tuple(sorted(set(range(config.num_tiles)) - set(ids)))
            found.append(
                ConstraintViolation(
                    "placement-permutation",
                    "placement is not a permutation of the logical PE ids",
                    severity=SEVERITY_FATAL,
                    details=violation_details(duplicate_pes=duplicates, missing_pes=missing),
                )
            )
            return found
        for tile_id, pe_id in enumerate(placement):
            if config.pe_type(int(pe_id)) is PEType.LLC and not self.grid.is_edge_tile(tile_id):
                found.append(
                    ConstraintViolation(
                        "llc-edge",
                        f"LLC PE {int(pe_id)} is placed on interior tile {tile_id}",
                        details=violation_details(tile=tile_id, pe=int(pe_id)),
                    )
                )
        return found

    def _link_violations(self, design: NocDesign) -> list[ConstraintViolation]:
        config = self.config
        found: list[ConstraintViolation] = []
        if len(set(design.links)) != len(design.links):
            link_counts: dict[Link, int] = {}
            for link in design.links:
                link_counts[link] = link_counts.get(link, 0) + 1
            duplicated = tuple(sorted(link for link, n in link_counts.items() if n > 1))
            found.append(
                ConstraintViolation(
                    "duplicate-link",
                    "duplicate links present",
                    details=violation_details(links=duplicated),
                )
            )
        planar = 0
        vertical = 0
        feasible = feasible_link_set(config)
        for link in design.links:
            if link.a >= config.num_tiles or link.b >= config.num_tiles:
                found.append(
                    ConstraintViolation(
                        "link-range",
                        f"{link} references a tile outside the grid",
                        details=violation_details(link=link, num_tiles=config.num_tiles),
                    )
                )
                continue
            if link not in feasible:
                found.append(
                    ConstraintViolation(
                        "link-shape",
                        f"{link} violates the planar-length/vertical-adjacency rules",
                        details=violation_details(
                            link=link, max_planar_length=config.max_planar_length
                        ),
                    )
                )
                continue
            if link_kind(link, self.grid) is LinkKind.PLANAR:
                planar += 1
            else:
                vertical += 1
        if planar != config.num_planar_links:
            found.append(
                ConstraintViolation(
                    "planar-budget",
                    f"design uses {planar} planar links, budget is {config.num_planar_links}",
                    details=violation_details(
                        used=planar,
                        budget=config.num_planar_links,
                        delta=planar - config.num_planar_links,
                    ),
                )
            )
        if vertical != config.num_vertical_links:
            found.append(
                ConstraintViolation(
                    "vertical-budget",
                    f"design uses {vertical} vertical links, budget is {config.num_vertical_links}",
                    details=violation_details(
                        used=vertical,
                        budget=config.num_vertical_links,
                        delta=vertical - config.num_vertical_links,
                    ),
                )
            )
        degrees = design.degrees()
        for tile_id in np.flatnonzero(degrees > config.max_router_degree):
            found.append(
                ConstraintViolation(
                    "router-degree",
                    f"router at tile {int(tile_id)} has degree {int(degrees[tile_id])} "
                    f"(max {config.max_router_degree})",
                    details=violation_details(
                        tile=int(tile_id),
                        degree=int(degrees[tile_id]),
                        max_degree=config.max_router_degree,
                    ),
                )
            )
        return found


# ---------------------------------------------------------------------- #
# Feasible design generation
# ---------------------------------------------------------------------- #
def random_placement(config: PlatformConfig, rng: RngLike = None) -> tuple[int, ...]:
    """Generate a random PE placement with LLCs restricted to edge tiles."""
    rng = ensure_rng(rng)
    grid = config.grid
    edge_tiles = grid.edge_tiles()
    llc_tiles = rng.choice(edge_tiles, size=config.num_llcs, replace=False)
    llc_tiles_set = set(int(t) for t in llc_tiles)
    other_tiles = [t for t in range(config.num_tiles) if t not in llc_tiles_set]
    other_pes = np.concatenate([config.cpu_ids, config.gpu_ids])
    rng.shuffle(other_pes)
    placement = np.empty(config.num_tiles, dtype=np.int64)
    llc_pes = config.llc_ids.copy()
    rng.shuffle(llc_pes)
    for tile_id, pe_id in zip(sorted(llc_tiles_set), llc_pes):
        placement[tile_id] = pe_id
    for tile_id, pe_id in zip(other_tiles, other_pes):
        placement[tile_id] = pe_id
    return tuple(int(p) for p in placement)


@lru_cache(maxsize=None)
def _candidates_by_endpoint(config: PlatformConfig) -> tuple[tuple[Link, ...], ...]:
    """Per-tile candidate links (planar pool order, then vertical), built once per platform."""
    by_endpoint: list[list[Link]] = [[] for _ in range(config.num_tiles)]
    for link in candidate_links(config):
        by_endpoint[link.a].append(link)
        by_endpoint[link.b].append(link)
    return tuple(tuple(links) for links in by_endpoint)


def random_link_placement(config: PlatformConfig, rng: RngLike = None) -> tuple[Link, ...]:
    """Generate a random feasible link placement.

    The generator first grows a random spanning tree over all tiles (which
    guarantees connectivity), then fills the remaining planar/vertical budgets
    with random unused candidate links, always respecting the router-degree
    cap.
    """
    rng = ensure_rng(rng)
    num_tiles = config.num_tiles
    max_degree = config.max_router_degree
    planar_budget = config.num_planar_links
    vertical_budget = config.num_vertical_links
    planar_candidates = candidate_planar_links(config)
    vertical_candidates = candidate_vertical_links(config)
    by_endpoint = _candidates_by_endpoint(config)
    # Every candidate is planar or vertical, so equal layers mean planar.
    layers = config.grid.tile_layers

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
        # Thousands of frontier pops per placement: their indices come from
        # bulk-drawn words, with the values and end state of one
        # ``rng.integers`` call per pop, synced before the fill draws.
        with BulkIntegers(rng) as draws:
            below = draws.below
            root = below(num_tiles)
            in_tree = [False] * num_tiles
            in_tree[root] = True
            tree_size = 1
            frontier: list[Link] = list(by_endpoint[root])
            pop = frontier.pop
            while tree_size < num_tiles:
                if not frontier:
                    raise RuntimeError("candidate link set cannot connect all tiles")
                link = pop(below(len(frontier)))
                a, b = link
                inside_a = in_tree[a]
                if inside_a == in_tree[b]:
                    continue
                if degrees[a] >= max_degree or degrees[b] >= max_degree:
                    continue
                if layers[a] == layers[b]:
                    if planar_used >= planar_budget:
                        continue
                    planar_used += 1
                else:
                    if vertical_used >= vertical_budget:
                        continue
                    vertical_used += 1
                chosen.add(link)
                degrees[a] += 1
                degrees[b] += 1
                new_node = b if inside_a else a
                in_tree[new_node] = True
                tree_size += 1
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

        planar_used += fill(planar_candidates, planar_budget - planar_used)
        vertical_used += fill(vertical_candidates, vertical_budget - vertical_used)

        if planar_used == planar_budget and vertical_used == vertical_budget:
            return tuple(sorted(chosen))


def random_design(config: PlatformConfig, rng: RngLike = None) -> NocDesign:
    """Generate a random design satisfying every constraint of Section III."""
    rng = ensure_rng(rng)
    design = NocDesign(
        placement=random_placement(config, rng),
        links=random_link_placement(config, rng),
    )
    return design
