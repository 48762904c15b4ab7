"""Tests for the directed feasibility repair walk (:mod:`repro.noc.repair`).

Includes the PR's acceptance corpus: >= 50 seeded infeasible designs per
platform class (the paper's 4x4x4 and the big 8x8x4), of which the directed
walk must repair at least 90% within its default budget, with every plan
replaying bit-identically from its seed and ``repro explain`` rendering a
non-empty structured report for each.
"""

from collections import Counter

import numpy as np
import pytest

from repro.noc import repair
from repro.noc.constraints import ConstraintChecker, random_design
from repro.noc.design import NocDesign
from repro.noc.links import Link, candidate_planar_links
from repro.noc.platform import PlatformConfig
from repro.noc.repair import (
    RepairBudget,
    RepairPlan,
    _fill_budgets,
    _repair_link_set,
    repair_design,
)


def _drop_links(design: NocDesign, count: int) -> NocDesign:
    return NocDesign(placement=design.placement, links=design.links[: len(design.links) - count])


def corrupt(design: NocDesign, config: PlatformConfig, seed: int) -> NocDesign:
    """Seeded corruption: one of three infeasibility modes, never feasible.

    Dropping links always breaks the exact per-kind budgets; duplicating
    additionally trips ``duplicate-link``; splicing in a max-length-violating
    planar link trips ``link-range``.
    """
    rng = np.random.default_rng(seed)
    mode = seed % 3
    if mode == 0:
        return _drop_links(design, int(rng.integers(1, 5)))
    if mode == 1:
        links = list(design.links[:-1])
        links.append(links[int(rng.integers(len(links)))])
        return NocDesign(placement=design.placement, links=tuple(links))
    # mode 2: replace one link with a same-layer link longer than the cap
    # (opposite corners of layer 0 are 2*(n-1) hops apart)
    corner_a, corner_b = 0, config.n * config.n - 1
    links = list(design.links[:-1])
    links.append(Link(corner_a, corner_b))
    return NocDesign(placement=design.placement, links=tuple(links))


class TestRepairBudget:
    def test_defaults_and_smoke(self):
        assert RepairBudget().to_dict() == {
            "max_rounds": 4, "candidates_per_round": 8, "max_evaluations": 32,
        }
        smoke = RepairBudget.smoke()
        assert smoke.max_rounds < RepairBudget().max_rounds

    @pytest.mark.parametrize("kwargs", [
        {"max_rounds": 0},
        {"candidates_per_round": 0},
        {"max_evaluations": -1},
    ])
    def test_rejects_bad_bounds(self, kwargs):
        with pytest.raises(ValueError):
            RepairBudget(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"max_rounds": 2.5},
        {"max_rounds": True},
        {"candidates_per_round": "3"},
        {"max_evaluations": 4.0},
        {"max_evaluations": False},
    ])
    def test_rejects_non_integer_bounds(self, kwargs):
        (name,) = kwargs
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            RepairBudget(**kwargs)

    def test_numpy_integer_bounds_become_ints(self):
        budget = RepairBudget(max_rounds=np.int64(3), max_evaluations=np.int32(0))
        assert budget.to_dict() == {
            "max_rounds": 3, "candidates_per_round": 8, "max_evaluations": 0,
        }
        assert type(budget.max_rounds) is int and type(budget.max_evaluations) is int


class TestBudgetFill:
    def test_no_shortfall_returns_the_design_without_drawing(self, small_config):
        design = random_design(small_config, np.random.default_rng(4))
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        assert _fill_budgets(design, small_config, rng) is design
        assert rng.bit_generator.state == state

    def test_fills_links_budget_trim_did_not_return(self, small_config):
        """budget-trim's counts describe only the links it returned."""
        on_budget = random_design(small_config, np.random.default_rng(4))
        assert repair._trim_budgets(on_budget, small_config, np.random.default_rng(9)) is on_budget
        short = NocDesign(on_budget.placement, on_budget.links[:-3])
        filled = _fill_budgets(short, small_config, np.random.default_rng(9))
        assert filled.num_links == small_config.num_links


class TestSharedLinkFacts:
    """budget-fill reuses budget-trim's partition; the verdict reuses restore-connectivity's traversal."""

    def _run_counted(self, design, config, monkeypatch):
        calls = Counter()

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        monkeypatch.setattr(NocDesign, "links_by_kind", counted("partition", NocDesign.links_by_kind))
        monkeypatch.setattr(repair, "connected_components", counted("components", repair.connected_components))
        monkeypatch.setattr(repair, "is_connected", counted("is_connected", repair.is_connected))
        repaired, actions = _repair_link_set(design, config, np.random.default_rng(1))
        assert ConstraintChecker(config).is_feasible(repaired)
        return calls, actions

    def test_feasible_links_are_partitioned_and_traversed_once(self, small_config, monkeypatch):
        design = random_design(small_config, np.random.default_rng(2))
        calls, actions = self._run_counted(design, small_config, monkeypatch)
        assert actions == ()
        assert calls == {"partition": 1, "components": 1}

    def test_trimmed_and_refilled_links_are_partitioned_once(self, small_config, monkeypatch):
        design = random_design(small_config, np.random.default_rng(0))
        extra = tuple(link for link in candidate_planar_links(small_config) if link not in design.links)
        calls, actions = self._run_counted(
            NocDesign(design.placement, design.links + extra), small_config, monkeypatch
        )
        assert {"budget-trim", "budget-fill"} <= set(actions)
        assert calls["partition"] == 1
        assert calls["is_connected"] == 0


class TestRepairWalk:
    def test_feasible_input_is_a_trivial_plan(self, tiny_config):
        design = random_design(tiny_config, np.random.default_rng(0))
        plan = repair_design(design, tiny_config, seed=0)
        assert plan.feasible and plan.rounds_used == 0
        assert plan.design is design
        assert plan.evaluations_used == 0

    def test_fatal_reports_are_refused(self, tiny_config):
        design = random_design(tiny_config, np.random.default_rng(0))
        placement = list(design.placement)
        placement[0] = placement[1]
        broken = NocDesign(placement=tuple(placement), links=design.links)
        plan = repair_design(broken, tiny_config, seed=0)
        assert not plan.feasible and plan.rounds_used == 0
        assert plan.final_report.fatal

    def test_repairs_dropped_links(self, tiny_config):
        design = _drop_links(random_design(tiny_config, np.random.default_rng(1)), 2)
        plan = repair_design(design, tiny_config, seed=7)
        assert plan.feasible
        assert ConstraintChecker(tiny_config).is_feasible(plan.design)
        assert plan.design.placement == design.placement
        assert plan.steps and plan.steps[-1].actions

    def test_repairs_interior_llc_placement(self, small_config):
        from repro.noc.platform import PEType

        design = random_design(small_config, np.random.default_rng(6))
        grid = small_config.grid
        placement = list(design.placement)
        interior = next(t for t in grid.tiles() if not grid.is_edge_tile(t))
        llc_tile = next(
            t for t, pe in enumerate(placement)
            if small_config.pe_type(int(pe)) is PEType.LLC
        )
        placement[interior], placement[llc_tile] = placement[llc_tile], placement[interior]
        broken = NocDesign(placement=tuple(placement), links=design.links)
        plan = repair_design(broken, small_config, seed=9)
        assert "llc-edge" in plan.initial_report.codes
        assert plan.feasible
        assert "llc-edge-swap" in plan.steps[-1].actions

    def test_trims_excess_links(self, tiny_config):
        from repro.noc.links import is_feasible_link

        design = random_design(tiny_config, np.random.default_rng(7))
        grid = tiny_config.grid
        extra = next(
            Link(a, b)
            for a in range(tiny_config.num_tiles)
            for b in range(a + 1, tiny_config.num_tiles)
            if grid.coord(a).same_layer(grid.coord(b))
            and is_feasible_link(Link(a, b), tiny_config)
            and Link(a, b) not in design.links
        )
        broken = NocDesign(placement=design.placement, links=design.links + (extra,))
        plan = repair_design(broken, tiny_config, seed=4)
        assert plan.feasible
        assert len(plan.design.links) == len(design.links)

    def test_scoring_uses_the_evaluator_within_budget(self, tiny_config, tiny_problem):
        design = _drop_links(random_design(tiny_config, np.random.default_rng(2)), 2)
        before = tiny_problem.evaluations
        plan = repair_design(
            design, tiny_config, seed=5,
            evaluator=tiny_problem.evaluator, checker=tiny_problem.checker,
        )
        assert plan.feasible
        assert 0 < plan.evaluations_used <= RepairBudget().max_evaluations
        # repair evaluations flow through the problem's cached counter
        assert tiny_problem.evaluations >= before

    def test_scored_choice_is_deterministic(self, tiny_config, tiny_problem):
        design = _drop_links(random_design(tiny_config, np.random.default_rng(3)), 3)
        first, second = (
            repair_design(
                design, tiny_config, seed=11,
                evaluator=tiny_problem.evaluator, checker=tiny_problem.checker,
            )
            for _ in range(2)
        )
        assert first.to_dict() == second.to_dict()

    def test_budget_exhaustion_returns_partial_progress(self, tiny_config):
        """A walk that never reaches feasibility still reports every round
        and adopts the candidate with the fewest violations."""
        from dataclasses import replace as dc_replace

        from repro.noc.constraints import ConstraintViolation

        class NeverSatisfied(ConstraintChecker):
            # keeps one synthetic non-fatal violation alive forever, so the
            # walk exhausts its rounds no matter what the operators do
            def report(self, design):
                base = super().report(design)
                stuck = ConstraintViolation("llc-edge", "synthetic: never satisfied")
                return dc_replace(base, violations=base.violations + (stuck,))

        design = _drop_links(random_design(tiny_config, np.random.default_rng(8)), 2)
        budget = RepairBudget.smoke()
        plan = repair_design(
            design, tiny_config, seed=6, budget=budget, checker=NeverSatisfied(tiny_config)
        )
        assert not plan.feasible
        assert plan.rounds_used == budget.max_rounds
        # the real (budget) violation was still repaired along the way
        assert len(plan.final_report.violations) < len(plan.initial_report.violations)
        assert all(not step.feasible_candidates for step in plan.steps)

    def test_transcript_is_rendered(self, tiny_config):
        design = _drop_links(random_design(tiny_config, np.random.default_rng(4)), 1)
        plan = repair_design(design, tiny_config, seed=1)
        text = plan.format()
        assert "repair walk (seed 1)" in text
        assert "round 0" in text

    def test_plan_serializes_to_json_data(self, tiny_config):
        import json

        design = _drop_links(random_design(tiny_config, np.random.default_rng(5)), 2)
        plan = repair_design(design, tiny_config, seed=2)
        payload = json.loads(json.dumps(plan.to_dict()))
        assert payload["feasible"] is plan.feasible
        assert payload["initial_report"]["violations"]
        rebuilt = NocDesign.from_arrays(
            payload["design"]["placement"],
            [tuple(pair) for pair in payload["design"]["links"]],
        )
        assert rebuilt == plan.design


CORPUS_SIZE = 50


class TestAcceptanceCorpus:
    """The ISSUE's acceptance bar, per platform class."""

    @pytest.fixture(
        scope="class",
        params=[PlatformConfig.paper_4x4x4, PlatformConfig.big_8x8x4],
        ids=["paper-4x4x4", "big-8x8x4"],
    )
    def corpus(self, request):
        config = request.param()
        checker = ConstraintChecker(config)
        designs = []
        for seed in range(CORPUS_SIZE):
            base = random_design(config, np.random.default_rng(1000 + seed))
            broken = corrupt(base, config, seed)
            assert not checker.report(broken).feasible, (config.name, seed)
            designs.append(broken)
        return config, checker, designs

    @pytest.fixture(scope="class")
    def plans(self, corpus):
        config, checker, designs = corpus
        return [repair_design(d, config, seed=i, checker=checker)
                for i, d in enumerate(designs)]

    def test_repair_rate_at_least_90_percent(self, corpus, plans):
        config, checker, _ = corpus
        repaired = [p for p in plans if p.feasible]
        assert len(repaired) >= 0.9 * CORPUS_SIZE, config.name
        for plan in repaired:
            assert checker.is_feasible(plan.design)

    def test_every_plan_replays_from_its_seed(self, corpus, plans):
        config, checker, designs = corpus
        for i, (design, first) in enumerate(zip(designs, plans)):
            again = repair_design(design, config, seed=i, checker=checker)
            assert first.to_dict() == again.to_dict(), (config.name, i)

    def test_explain_renders_every_report(self, corpus, tmp_path, capsys):
        """``repro explain`` produces a non-empty structured report per design."""
        from repro.cli import main
        from repro.utils.serialization import save_design

        config, checker, designs = corpus
        for i, design in enumerate(designs):
            path = save_design(design, tmp_path / f"design_{i}.json")
            code = main(["explain", str(path), "--platform", config.name])
            out = capsys.readouterr().out
            assert code == 1, (config.name, i)
            assert f"design on {config.name}" in out
            assert "violation(s)" in out
            assert "[" in out  # at least one [code] line
