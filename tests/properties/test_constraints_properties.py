"""Property-based tests (hypothesis) for constraint reports and repair operators.

Four families of invariants back the feasibility subsystem
(:mod:`repro.noc.constraints` + :mod:`repro.noc.repair`):

* the structural repair operators (``repair_links``,
  ``_restore_connectivity``) always return designs that respect the link
  budgets, the router degree cap and connectivity, without touching the
  placement;
* after ``LINK_OPERATORS``, the pipeline's own feasibility verdict agrees
  with the checker: no link-family violation code exactly when it says
  feasible;
* violation reports are *pure*: the same design always produces a
  byte-identical report (REP003 — no iteration-order or RNG leakage into
  serialized artifacts);
* report ordering is deterministic and canonical (severity, then code, then
  message), so diffs between two reports are meaningful.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.noc.constraints import (
    ConstraintChecker,
    _violation_sort_key,
    is_connected,
    random_design,
    random_placement,
)
from repro.noc.design import NocDesign
from repro.noc.links import Link, candidate_links, link_kind
from repro.noc.platform import PlatformConfig
from repro.noc.repair import (
    LINK_CODES,
    LINK_OPERATORS,
    _links_feasible,
    _restore_connectivity,
    repair_design,
    repair_links,
)

TINY = PlatformConfig.tiny_2x2x2()
CHECKER = ConstraintChecker(TINY)
#: Three routers per tile for 24 links on 18 tiles: the fill and the bridge
#: search often run out of ports, so the operators regularly fall short.
TIGHT = PlatformConfig(
    n=3, layers=2, num_cpus=2, num_gpus=12, num_llcs=4,
    num_planar_links=16, num_vertical_links=8, max_planar_length=2, max_router_degree=3,
    name="tight-3x3x2",
)


def _damaged_design(seed: int, drop: int, duplicate: bool) -> NocDesign:
    """A feasible design degraded by dropping links and/or duplicating one."""
    rng = np.random.default_rng(seed)
    design = random_design(TINY, rng)
    links = list(design.links[: len(design.links) - drop])
    if duplicate and links:
        links.append(links[0])
    return NocDesign(placement=design.placement, links=tuple(links))


def _assert_structurally_feasible(design: NocDesign, config: PlatformConfig) -> None:
    """Budget + degree + connectivity invariants, asserted explicitly."""
    grid = config.grid
    kinds = [link_kind(link, grid).value for link in design.links]
    assert kinds.count("planar") <= config.num_planar_links
    assert kinds.count("vertical") <= config.num_vertical_links
    assert int(design.degrees().max(initial=0)) <= config.max_router_degree
    assert is_connected(design)


@given(
    seed=st.integers(min_value=0, max_value=5_000),
    drop=st.integers(min_value=0, max_value=6),
    duplicate=st.booleans(),
)
def test_repair_links_respects_budgets_degree_and_connectivity(seed, drop, duplicate):
    damaged = _damaged_design(seed, drop, duplicate)
    repaired = repair_links(damaged, TINY, np.random.default_rng(seed))
    _assert_structurally_feasible(repaired, TINY)
    assert CHECKER.is_feasible(repaired)
    assert repaired.placement == damaged.placement


@given(seed=st.integers(min_value=0, max_value=5_000), drop=st.integers(min_value=1, max_value=4))
def test_restore_connectivity_never_disconnects(seed, drop):
    rng = np.random.default_rng(seed)
    design = random_design(TINY, rng)
    # Disconnect by dropping links, then refill the budgets with random legal
    # links (which need not reconnect the network).
    damaged = NocDesign(placement=design.placement, links=design.links[: len(design.links) - drop])
    restored = _restore_connectivity(damaged, TINY, rng)
    assert is_connected(restored)
    assert restored.placement == damaged.placement
    # Restoring an already-connected design must keep it connected.
    again = _restore_connectivity(restored, TINY, rng)
    assert is_connected(again)


def _operated_link_sets(
    config: PlatformConfig, seed: int, share: float, damage: bool
) -> list[NocDesign]:
    """A random share of the candidate links, optionally with a duplicate, a
    diagonal and an out-of-range link, after each of ``LINK_OPERATORS``."""
    rng = np.random.default_rng(seed)
    pool = candidate_links(config)
    chosen = rng.permutation(len(pool))[: round(share * len(pool))]
    links = [pool[int(i)] for i in chosen]
    if damage:
        last = config.num_tiles - 1
        links += links[:1] + [Link(0, last), Link(0, last + 3)]
    design = NocDesign(placement=random_placement(config, rng), links=tuple(links))
    states = []
    for _, operator in LINK_OPERATORS:
        design = operator(design, config, rng)
        states.append(design)
    return states


#: From budget-trim on, every link is unique, of a feasible shape, within the
#: degree cap and within its kind's budget: the verdict's precondition.
_TRIMMED = [name for name, _ in LINK_OPERATORS].index("budget-trim")


@given(
    config=st.sampled_from([TINY, TIGHT, PlatformConfig.small_3x3x3()]),
    seed=st.integers(min_value=0, max_value=5_000),
    share=st.floats(min_value=0.0, max_value=1.0),
    damage=st.booleans(),
)
def test_pipeline_verdict_matches_the_checker(config, seed, share, damage):
    """Over- and under-budget, over-degree, duplicate and bad-shape inputs alike."""
    checker = ConstraintChecker(config)
    for design in _operated_link_sets(config, seed, share, damage)[_TRIMMED:]:
        codes = set(checker.report(design).codes)
        assert _links_feasible(design, config) == (not codes & LINK_CODES)


def test_pipeline_verdict_sees_both_outcomes():
    """The property above is not vacuous: the tight platform yields both final verdicts."""
    verdicts = {
        _links_feasible(_operated_link_sets(TIGHT, seed, 0.6, True)[-1], TIGHT)
        for seed in range(40)
    }
    assert verdicts == {True, False}


@given(
    seed=st.integers(min_value=0, max_value=5_000),
    drop=st.integers(min_value=0, max_value=6),
    duplicate=st.booleans(),
)
def test_reports_are_pure(seed, drop, duplicate):
    """Same design, any checker instance, any time: byte-identical report."""
    design = _damaged_design(seed, drop, duplicate)
    first = ConstraintChecker(TINY).report(design)
    second = ConstraintChecker(TINY).report(design)
    assert first == second
    assert first.to_json() == second.to_json()
    assert first.to_dict() == second.to_dict()


@given(
    seed=st.integers(min_value=0, max_value=5_000),
    drop=st.integers(min_value=0, max_value=6),
    duplicate=st.booleans(),
)
def test_report_ordering_is_canonical(seed, drop, duplicate):
    """Violations arrive sorted by (severity rank, code, message) — REP003."""
    report = CHECKER.report(_damaged_design(seed, drop, duplicate))
    assert list(report.violations) == sorted(report.violations, key=_violation_sort_key)
    for violation in report.violations:
        # details are canonical sorted (key, value) pairs — directly hashable
        # and byte-stable under json serialization.
        assert list(violation.details) == sorted(violation.details)
        hash(violation)


@given(seed=st.integers(min_value=0, max_value=2_000), drop=st.integers(min_value=1, max_value=5))
def test_repair_plans_replay_deterministically(seed, drop):
    """The same seed and design always produce the identical RepairPlan."""
    damaged = _damaged_design(seed, drop, duplicate=False)
    first = repair_design(damaged, TINY, seed=seed)
    second = repair_design(damaged, TINY, seed=seed)
    assert first.to_dict() == second.to_dict()
    if first.feasible:
        assert CHECKER.is_feasible(first.design)
