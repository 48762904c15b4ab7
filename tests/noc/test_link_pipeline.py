"""Tests of the link-repair pipeline (:data:`repro.noc.repair.LINK_OPERATORS`).

The retired ``repair_links`` (``tests/oracles/constraints.py``) is the exact
oracle on crossover children: same links, same generator end state.  The
:class:`~repro.noc.constraints.ConstraintChecker` stays the reference for
whether a repaired design is feasible.
"""

import numpy as np
import pytest

from repro.noc import repair
from repro.noc.constraints import ConstraintChecker, is_connected, random_design
from repro.noc.crossover import crossover_links, crossover_placement
from repro.noc.design import NocDesign
from repro.noc.links import LinkKind, candidate_planar_links, link_kind
from repro.noc.platform import PlatformConfig
from repro.noc.repair import (
    _directed_candidate,
    _links_feasible,
    _repair_link_set,
    repair_links,
)
from tests.oracles.constraints import repair_links_reference


def cut_off_column(design: NocDesign, config: PlatformConfig, column: int) -> NocDesign:
    """``design`` with one tile column's planar links moved elsewhere: disconnected, on budget."""
    grid = config.grid
    inside = {tile for tile in range(config.num_tiles) if grid.tile_columns[tile] == column}
    links = {
        link
        for link in design.links
        if link_kind(link, grid) is LinkKind.VERTICAL or not inside & set(link)
    }
    degrees = NocDesign(design.placement, tuple(links)).degrees()
    for link in candidate_planar_links(config):
        a, b = link
        if len(links) == design.num_links:
            break
        if (link not in links and not inside & {a, b}
                and max(degrees[a], degrees[b]) < config.max_router_degree):
            links.add(link)
            degrees[a] += 1
            degrees[b] += 1
    return NocDesign(design.placement, tuple(links))


def crossover_children(config: PlatformConfig, count: int, seed: int) -> list[NocDesign]:
    """Unrepaired crossover children of random parents; every second one is cut in two."""
    rng = np.random.default_rng(seed)
    parents = [random_design(config, rng) for _ in range(8)]
    children = []
    for i in range(count):
        a, b = parents[i % 8], parents[(3 * i + 1) % 8]
        child = NocDesign(
            crossover_placement(a, b, config, rng), crossover_links(a, b, config, rng)
        )
        if i % 2:
            child = cut_off_column(child, config, int(rng.integers(config.n * config.n)))
        children.append(child)
    return children


@pytest.mark.parametrize(
    "factory,count",
    [
        (PlatformConfig.small_3x3x3, 24),
        (PlatformConfig.paper_4x4x4, 24),
        (PlatformConfig.big_8x8x4, 8),
    ],
    ids=["small-3x3x3", "paper-4x4x4", "big-8x8x4"],
)
def test_matches_the_oracle_on_crossover_children(factory, count):
    config = factory()
    children = crossover_children(config, count, seed=3)
    assert any(not is_connected(child) for child in children)
    new_rng, old_rng = np.random.default_rng(11), np.random.default_rng(11)
    restored = 0
    for child in children:
        expected = repair_links_reference(child, config, old_rng)
        repaired, actions = _repair_link_set(child, config, new_rng)
        assert repaired.links == expected.links
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
        restored += "restore-connectivity" in actions
    assert restored > 0


@pytest.mark.parametrize("column", [0, 4, 8])
def test_verdict_rejects_a_disconnected_link_set_on_budget(small_config, column):
    design = random_design(small_config, np.random.default_rng(6))
    design = cut_off_column(design, small_config, column)
    assert design.num_links == small_config.num_links
    assert ConstraintChecker(small_config).report(design).codes == ("connectivity",)
    assert not _links_feasible(design, small_config)


def test_degree_and_budget_trims_both_fire_and_repair(small_config):
    design = random_design(small_config, np.random.default_rng(0))
    extra = tuple(link for link in candidate_planar_links(small_config) if link not in design.links)
    overloaded = NocDesign(design.placement, design.links + extra)
    checker = ConstraintChecker(small_config)
    assert {"planar-budget", "router-degree"} <= set(checker.report(overloaded).codes)
    repaired, actions = _repair_link_set(overloaded, small_config, np.random.default_rng(1))
    assert actions[:2] == ("degree-trim", "budget-trim")
    assert "regenerate-links" not in actions
    assert checker.is_feasible(repaired)
    assert repair_links(overloaded, small_config, np.random.default_rng(1)) == repaired


def test_feasible_links_are_left_alone_without_draws(small_config):
    design = random_design(small_config, np.random.default_rng(2))
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    assert _repair_link_set(design, small_config, rng) == (design, ())
    assert rng.bit_generator.state == state


def test_fallback_regenerates_an_infeasible_link_set(small_config, monkeypatch):
    design = random_design(small_config, np.random.default_rng(3))
    damaged = NocDesign(design.placement, design.links[:-4])
    monkeypatch.setattr(repair, "LINK_OPERATORS", repair.LINK_OPERATORS[:1])
    repaired, actions = _repair_link_set(damaged, small_config, np.random.default_rng(4))
    assert actions == ("regenerate-links",)
    assert repaired.placement == damaged.placement
    assert ConstraintChecker(small_config).is_feasible(repaired)


def test_walk_candidates_run_the_same_pipeline(small_config):
    """A link-only report gives a walk candidate exactly the pipeline's output."""
    checker = ConstraintChecker(small_config)
    for child in crossover_children(small_config, 6, seed=8):
        report = checker.report(child)
        assert "llc-edge" not in report.codes
        walked = _directed_candidate(child, small_config, report, np.random.default_rng(9))
        assert walked == _repair_link_set(child, small_config, np.random.default_rng(9))
