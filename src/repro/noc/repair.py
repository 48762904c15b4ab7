"""Link repair and the directed feasibility repair walk.

:data:`LINK_OPERATORS` is the one ordered list of link-repair operators,
followed by one ``regenerate-links`` fallback.  :func:`repair_links` runs it
on every crossover child; the directed walk runs it inside each candidate.

:mod:`repro.noc.constraints` explains *why* a design is infeasible
(:class:`~repro.noc.constraints.ViolationReport`); :func:`repair_design`
acts on that explanation.  It runs a seeded, budget-bounded walk whose
candidates swap interior LLCs to the edge for ``llc-edge`` and run the
operator list for the link-family codes, generates a brood of candidate
repairs per round, and (when an evaluator is supplied) scores the feasible
candidates through
:meth:`~repro.objectives.evaluator.ObjectiveEvaluator.evaluate_many` so the
repair that lands closest to the Pareto-relevant region wins, not merely the
first feasible one.

Every stochastic choice of the walk is derived from ``(seed, round,
candidate)`` via a sha256 substream (the campaign-cell idiom from
:mod:`repro.experiments.runner`), so a :class:`RepairPlan` replays
bit-identically from its recorded seed: same design + same seed + same
budget → same steps, same evaluations spent, same repaired design.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import ne
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.noc.constraints import (
    ConstraintChecker,
    ViolationReport,
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
    link_kind,
)
from repro.noc.platform import PEType, PlatformConfig
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_count

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (evaluator imports noc)
    from repro.objectives.evaluator import ObjectiveEvaluator

#: Violation codes :data:`LINK_OPERATORS` can act on.
LINK_CODES = frozenset(
    {
        "duplicate-link",
        "link-range",
        "link-shape",
        "planar-budget",
        "vertical-budget",
        "router-degree",
        "connectivity",
    }
)


@dataclass(frozen=True)
class RepairBudget:
    """Bounds on the directed repair walk.

    ``max_rounds`` caps the number of candidate broods generated,
    ``candidates_per_round`` sizes each brood, and ``max_evaluations`` caps
    the total number of candidates scored through the objective evaluator
    (scoring is skipped entirely once the cap is reached; the walk then
    falls back to the first feasible candidate, which costs nothing).
    """

    max_rounds: int = 4
    candidates_per_round: int = 8
    max_evaluations: int = 32

    def __post_init__(self) -> None:
        for name, minimum in (
            ("max_rounds", 1),
            ("candidates_per_round", 1),
            ("max_evaluations", 0),
        ):
            object.__setattr__(self, name, require_count(getattr(self, name), name, minimum))

    def to_dict(self) -> dict[str, int]:
        return {
            "max_rounds": self.max_rounds,
            "candidates_per_round": self.candidates_per_round,
            "max_evaluations": self.max_evaluations,
        }

    @classmethod
    def smoke(cls) -> "RepairBudget":
        """Tiny budget for tests."""
        return cls(max_rounds=2, candidates_per_round=4, max_evaluations=8)


@dataclass(frozen=True)
class RepairStep:
    """One round of the repair walk.

    ``actions`` names the operators applied to the candidate the round
    selected (in application order); ``codes_before``/``codes_after`` are the
    violation codes around the round, so a transcript reads as a chain of
    "had these problems → applied these operators → left with these".
    """

    round: int
    actions: tuple[str, ...]
    candidates: int
    feasible_candidates: int
    scored: int
    selected: int
    codes_before: tuple[str, ...]
    codes_after: tuple[str, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "round": self.round,
            "actions": list(self.actions),
            "candidates": self.candidates,
            "feasible_candidates": self.feasible_candidates,
            "scored": self.scored,
            "selected": self.selected,
            "codes_before": list(self.codes_before),
            "codes_after": list(self.codes_after),
        }


@dataclass(frozen=True)
class RepairPlan:
    """The full, replayable outcome of one :func:`repair_design` call."""

    seed: int
    budget: RepairBudget
    feasible: bool
    design: NocDesign
    initial_report: ViolationReport
    final_report: ViolationReport
    steps: tuple[RepairStep, ...]
    evaluations_used: int

    @property
    def rounds_used(self) -> int:
        """Number of candidate broods the walk generated."""
        return len(self.steps)

    def to_dict(self) -> dict[str, Any]:
        """JSON representation (reports via their own canonical encodings)."""
        return {
            "seed": self.seed,
            "budget": self.budget.to_dict(),
            "feasible": self.feasible,
            "evaluations_used": self.evaluations_used,
            "rounds_used": self.rounds_used,
            "steps": [step.to_dict() for step in self.steps],
            "initial_report": self.initial_report.to_dict(),
            "final_report": self.final_report.to_dict(),
            "design": {
                "placement": [int(p) for p in self.design.placement],
                "links": [[int(link.a), int(link.b)] for link in self.design.links],
            },
        }

    def format(self) -> str:
        """Multi-line human-readable repair transcript."""
        verdict = "repaired" if self.feasible else "NOT repaired"
        lines = [
            f"repair walk (seed {self.seed}): {verdict} after "
            f"{self.rounds_used} round(s), {self.evaluations_used} evaluation(s)"
        ]
        for step in self.steps:
            before = ",".join(step.codes_before) or "-"
            after = ",".join(step.codes_after) or "feasible"
            actions = " -> ".join(step.actions) or "(no-op)"
            lines.append(
                f"  round {step.round}: [{before}] {actions} => [{after}] "
                f"(candidate {step.selected}/{step.candidates}, "
                f"{step.feasible_candidates} feasible, {step.scored} scored)"
            )
        return "\n".join(lines)


def _candidate_seed(seed: int, round_idx: int, index: int) -> int:
    """Deterministic per-(round, candidate) substream seed."""
    identity = f"repair|{seed}|{round_idx}|{index}"
    digest = hashlib.sha256(identity.encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


def _swap_llcs_to_edge(design: NocDesign, config: PlatformConfig, rng) -> NocDesign:
    """Swap interior-placed LLC PEs with random non-LLC PEs on edge tiles."""
    grid = config.grid
    placement = list(design.placement)
    offending = [
        tile
        for tile, pe in enumerate(placement)
        if config.pe_type(int(pe)) is PEType.LLC and not grid.is_edge_tile(tile)
    ]
    if not offending:
        return design
    targets = [
        tile
        for tile in range(config.num_tiles)
        if grid.is_edge_tile(tile) and config.pe_type(int(placement[tile])) is not PEType.LLC
    ]
    order = rng.permutation(len(targets))
    for tile, target_idx in zip(offending, order):
        target = targets[int(target_idx)]
        placement[tile], placement[target] = placement[target], placement[tile]
    return NocDesign(placement=tuple(int(p) for p in placement), links=design.links)


def _drop_invalid_links(design: NocDesign, config: PlatformConfig, rng) -> NocDesign:
    """Remove duplicate, out-of-range and shape-invalid links."""
    feasible = feasible_link_set(config)
    links = design.links  # sorted, so any duplicate sits next to its twin
    if feasible.issuperset(links) and all(map(ne, links, links[1:])):
        return design
    return NocDesign(placement=design.placement, links=feasible.intersection(links))


def _trim_degrees(design: NocDesign, config: PlatformConfig, rng) -> NocDesign:
    """Keep links in random order while both endpoints stay within the degree cap."""
    max_degree = config.max_router_degree
    if not (design.degrees() > max_degree).any():
        return design
    links = list(design.links)
    rng.shuffle(links)
    kept: list[Link] = []
    counts = [0] * config.num_tiles
    for link in links:
        a, b = link
        if counts[a] < max_degree and counts[b] < max_degree:
            kept.append(link)
            counts[a] += 1
            counts[b] += 1
    return NocDesign(placement=design.placement, links=tuple(kept))


def _budgets(config: PlatformConfig) -> tuple[tuple[LinkKind, int, tuple[Link, ...]], ...]:
    """``(kind, budget, candidate pool)`` per link kind, planar first."""
    return (
        (LinkKind.PLANAR, config.num_planar_links, candidate_planar_links(config)),
        (LinkKind.VERTICAL, config.num_vertical_links, candidate_vertical_links(config)),
    )


# One-entry caches of facts about an immutable link tuple, which an operator
# hands to a later one, keyed on the tuple's identity: an operator that leaves
# the links alone passes the same tuple on, and any other link set misses and
# derives the fact again.
#: ``(links, grid, per-kind counts)`` of the links budget-trim returned last.
_trimmed_counts: tuple = (None, None, ())
#: The link tuple restore-connectivity last found connected.
_connected_links: "tuple[Link, ...] | None" = None


def _trim_budgets(design: NocDesign, config: PlatformConfig, rng) -> NocDesign:
    """Cut each kind over its budget down to a random subset of that size."""
    global _trimmed_counts
    partition = design.links_by_kind(config.grid)
    kept: list[Link] = []
    counts: list[int] = []
    for kind, budget, _ in _budgets(config):
        links = partition[kind]
        if len(links) > budget:
            links = [links[int(i)] for i in rng.permutation(len(links))[:budget]]
        kept.extend(links)
        counts.append(len(links))
    if len(kept) != design.num_links:
        design = NocDesign(placement=design.placement, links=tuple(kept))
    _trimmed_counts = (design.links, config.grid, tuple(counts))
    return design


def _fill_budgets(design: NocDesign, config: PlatformConfig, rng) -> NocDesign:
    """Add random unused links to each kind short of its budget; ``design`` if none is.

    The per-kind counts come from budget-trim when it returned these links,
    so a trimmed design is partitioned by kind only once.
    """
    trimmed, grid, counts = _trimmed_counts
    if trimmed is not design.links or grid is not config.grid:
        partition = design.links_by_kind(config.grid)
        counts = tuple(len(partition[kind]) for kind, _, _ in _budgets(config))
    shortfalls = [
        (budget - count, pool)
        for (_, budget, pool), count in zip(_budgets(config), counts)
        if count < budget
    ]
    if not shortfalls:
        return design
    max_degree = config.max_router_degree
    links = set(design.links)
    degrees = design.degrees().tolist()
    for needed, pool in shortfalls:
        added = 0
        for idx in rng.permutation(len(pool)).tolist():
            if added >= needed:
                break
            link = pool[idx]
            a, b = link
            if link not in links and degrees[a] < max_degree and degrees[b] < max_degree:
                links.add(link)
                degrees[a] += 1
                degrees[b] += 1
                added += 1
    return NocDesign(placement=design.placement, links=tuple(sorted(links)))


def _restore_connectivity(design: NocDesign, config: PlatformConfig, rng) -> NocDesign:
    """Swap links until the network is connected, preserving per-kind budgets.

    Each swap adds a bridge from tile 0's component to another one and
    removes a random link of the bridge's kind.  Every link of a
    disconnected network is a candidate victim: none is redundant for
    connectivity, since removing a link cannot connect it.
    """
    global _connected_links
    grid = config.grid
    current = design
    for _ in range(4 * config.num_links):
        components = connected_components(current)
        if len(components) <= 1:
            _connected_links = current.links
            break
        bridge = _find_bridge(components, current, config, rng)
        if bridge is None:
            break
        kind = link_kind(bridge, grid)
        removable = [link for link in current.links if link_kind(link, grid) is kind]
        victim = removable[int(rng.integers(len(removable)))]
        links = set(current.links) - {victim} | {bridge}
        current = NocDesign(placement=current.placement, links=tuple(links))
    return current


def _find_bridge(components: list[list[int]], design: NocDesign, config: PlatformConfig, rng):
    """A random feasible link from tile 0's component to another, with spare degree at both ends."""
    main = components[0]
    others = [tile for component in components[1:] for tile in component]
    rng.shuffle(main)
    rng.shuffle(others)
    feasible = feasible_link_set(config)
    degrees = design.degrees()
    max_degree = config.max_router_degree
    for a in main:
        for b in others:
            link = Link.make(a, b)
            if link in feasible and degrees[a] < max_degree and degrees[b] < max_degree:
                return link
    return None


#: The link-repair pipeline, in application order: ``(name, operator)``
#: pairs, each operator mapping ``(design, config, rng)`` to a design.
LINK_OPERATORS = (
    ("drop-invalid-links", _drop_invalid_links),
    ("degree-trim", _trim_degrees),
    ("budget-trim", _trim_budgets),
    ("budget-fill", _fill_budgets),
    ("restore-connectivity", _restore_connectivity),
)


def _links_feasible(design: NocDesign, config: PlatformConfig) -> bool:
    """Verdict on a link set :data:`LINK_OPERATORS` has run over.

    The operators leave every link unique, of a feasible shape, within the
    degree cap and within its kind's budget, so the set is feasible exactly
    when it is connected and its total meets the total budget.  Links
    restore-connectivity just found connected are not traversed again.
    """
    if design.num_links != config.num_links:
        return False
    return design.links is _connected_links or is_connected(design)


def _repair_link_set(
    design: NocDesign, config: PlatformConfig, rng
) -> tuple[NocDesign, tuple[str, ...]]:
    """Run :data:`LINK_OPERATORS`, then regenerate the links if they are still infeasible.

    Returns the repaired design and the names of the steps that changed its
    links, in application order.
    """
    actions: list[str] = []
    for name, operator in LINK_OPERATORS:
        repaired = operator(design, config, rng)
        if repaired.links != design.links:
            actions.append(name)
        design = repaired
    if not _links_feasible(design, config):
        # Piecemeal operators could not land a feasible link set; regrow one
        # from scratch on the same placement — total-function fallback.
        design = NocDesign(placement=design.placement, links=random_link_placement(config, rng))
        actions.append("regenerate-links")
    return design, tuple(actions)


def repair_links(design: NocDesign, config: PlatformConfig, rng: RngLike = None) -> NocDesign:
    """Repair a design whose link placement violates budgets/degree/connectivity.

    The repair keeps as many of the existing links as possible: infeasible
    links are dropped, degree and budget overshoot is trimmed at random,
    missing links are added from the candidate pools, and connectivity is
    restored by swapping in bridging links.  The placement is left untouched.
    """
    return _repair_link_set(design, config, ensure_rng(rng))[0]


def _directed_candidate(
    design: NocDesign, config: PlatformConfig, report: ViolationReport, rng
) -> tuple[NocDesign, tuple[str, ...]]:
    """Build one repair candidate by applying operators targeted at ``report``.

    Returns the candidate and the names of the operators that actually
    changed the design, in application order.
    """
    actions: tuple[str, ...] = ()
    codes = set(report.codes)
    if "llc-edge" in codes:
        swapped = _swap_llcs_to_edge(design, config, rng)
        if swapped is not design:
            actions = ("llc-edge-swap",)
            design = swapped
    if codes & LINK_CODES:
        design, link_actions = _repair_link_set(design, config, rng)
        actions += link_actions
    return design, actions


def _candidate_scores(values: np.ndarray) -> np.ndarray:
    """Min-max-normalised objective sum per candidate (all objectives minimised)."""
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    return ((values - lo) / span).sum(axis=1)


def repair_design(
    design: NocDesign,
    config: PlatformConfig,
    *,
    seed: int,
    evaluator: "ObjectiveEvaluator | None" = None,
    budget: RepairBudget | None = None,
    checker: ConstraintChecker | None = None,
) -> RepairPlan:
    """Run the directed repair walk on ``design`` and return its :class:`RepairPlan`.

    The walk refuses fatal reports (wrong tile count, placement not a
    permutation): no link/placement operator can restore structural identity,
    so the plan comes back ``feasible=False`` with zero rounds.  For
    repairable reports each round builds ``budget.candidates_per_round``
    candidates from independent seeded substreams; the first round that
    yields feasible candidates selects one — the lowest normalised objective
    sum when an ``evaluator`` is given and evaluation budget remains, the
    first feasible candidate otherwise — and the walk stops.  Rounds that
    yield none adopt the candidate with the fewest violations (when it
    improves on the current design) and continue.
    """
    budget = budget if budget is not None else RepairBudget()
    checker = checker if checker is not None else ConstraintChecker(config)
    initial = checker.report(design)
    if initial.feasible or initial.fatal:
        return RepairPlan(
            seed=seed,
            budget=budget,
            feasible=initial.feasible,
            design=design,
            initial_report=initial,
            final_report=initial,
            steps=(),
            evaluations_used=0,
        )

    steps: list[RepairStep] = []
    evaluations_used = 0
    current = design
    current_report = initial

    for round_idx in range(budget.max_rounds):
        candidates: list[NocDesign] = []
        actions: list[tuple[str, ...]] = []
        for index in range(budget.candidates_per_round):
            rng = ensure_rng(_candidate_seed(seed, round_idx, index))
            candidate, applied = _directed_candidate(current, config, current_report, rng)
            candidates.append(candidate)
            actions.append(applied)

        reports = [checker.report(candidate) for candidate in candidates]
        feasible_idx = [i for i, rep in enumerate(reports) if rep.feasible]

        if feasible_idx:
            scored = 0
            remaining = budget.max_evaluations - evaluations_used
            if evaluator is not None and remaining > 0 and len(feasible_idx) > 1:
                to_score = feasible_idx[:remaining]
                values = evaluator.evaluate_many([candidates[i] for i in to_score])
                scored = len(to_score)
                evaluations_used += scored
                chosen = to_score[int(np.argmin(_candidate_scores(values)))]
            else:
                chosen = feasible_idx[0]
            steps.append(
                RepairStep(
                    round=round_idx,
                    actions=actions[chosen],
                    candidates=len(candidates),
                    feasible_candidates=len(feasible_idx),
                    scored=scored,
                    selected=chosen,
                    codes_before=current_report.codes,
                    codes_after=(),
                )
            )
            return RepairPlan(
                seed=seed,
                budget=budget,
                feasible=True,
                design=candidates[chosen],
                initial_report=initial,
                final_report=reports[chosen],
                steps=tuple(steps),
                evaluations_used=evaluations_used,
            )

        # No feasible candidate this round: keep the best partial progress
        # (fewest violations, ties broken by candidate index) and iterate.
        best = min(
            range(len(candidates)), key=lambda i: (len(reports[i].violations), i)
        )
        steps.append(
            RepairStep(
                round=round_idx,
                actions=actions[best],
                candidates=len(candidates),
                feasible_candidates=0,
                scored=0,
                selected=best,
                codes_before=current_report.codes,
                codes_after=reports[best].codes,
            )
        )
        if len(reports[best].violations) < len(current_report.violations):
            current = candidates[best]
            current_report = reports[best]

    return RepairPlan(
        seed=seed,
        budget=budget,
        feasible=False,
        design=current,
        initial_report=initial,
        final_report=current_report,
        steps=tuple(steps),
        evaluations_used=evaluations_used,
    )
