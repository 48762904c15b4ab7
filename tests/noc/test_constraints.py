"""Tests for constraint checking, random design generation and repair."""

import numpy as np
import pytest

import json

from repro.noc.constraints import (
    SEVERITY_ERROR,
    SEVERITY_FATAL,
    ConstraintChecker,
    ConstraintViolation,
    InfeasibleDesignError,
    ViolationReport,
    is_connected,
    random_design,
    random_link_placement,
    random_placement,
    violation_details,
)
from repro.noc.design import NocDesign
from repro.noc.links import Link, LinkKind
from repro.noc.platform import PEType, PlatformConfig
from repro.noc.repair import repair_links


class TestRandomGeneration:
    def test_random_designs_are_feasible(self, small_config):
        checker = ConstraintChecker(small_config)
        rng = np.random.default_rng(3)
        for _ in range(5):
            design = random_design(small_config, rng)
            assert checker.violations(design) == []

    def test_random_designs_on_paper_platform(self, paper_config):
        checker = ConstraintChecker(paper_config)
        design = random_design(paper_config, np.random.default_rng(5))
        assert checker.is_feasible(design)

    def test_random_placement_is_permutation(self, small_config):
        placement = random_placement(small_config, np.random.default_rng(0))
        assert sorted(placement) == list(range(small_config.num_tiles))

    def test_random_placement_llcs_on_edges(self, small_config):
        grid = small_config.grid
        placement = random_placement(small_config, np.random.default_rng(1))
        for tile, pe in enumerate(placement):
            if small_config.pe_type(pe) is PEType.LLC:
                assert grid.is_edge_tile(tile)

    def test_random_link_placement_respects_budgets(self, small_config):
        links = random_link_placement(small_config, np.random.default_rng(2))
        grid = small_config.grid
        planar = sum(1 for l in links if grid.coord(l.a).same_layer(grid.coord(l.b)))
        assert planar == small_config.num_planar_links
        assert len(links) - planar == small_config.num_vertical_links

    def test_generation_is_reproducible(self, tiny_config):
        a = random_design(tiny_config, 42)
        b = random_design(tiny_config, 42)
        assert a == b

    def test_flat_platform_designs_feasible(self):
        config = PlatformConfig.flat_4x4x1()
        checker = ConstraintChecker(config)
        design = random_design(config, np.random.default_rng(9))
        assert checker.is_feasible(design)


class TestChecker:
    def test_detects_llc_on_interior_tile(self, small_config):
        design = random_design(small_config, np.random.default_rng(0))
        grid = small_config.grid
        interior = next(t for t in grid.tiles() if not grid.is_edge_tile(t))
        llc_pe = int(small_config.llc_ids[0])
        placement = list(design.placement)
        llc_tile = placement.index(llc_pe)
        placement[interior], placement[llc_tile] = placement[llc_tile], placement[interior]
        bad = NocDesign(placement=tuple(placement), links=design.links)
        codes = [v.code for v in ConstraintChecker(small_config).violations(bad)]
        assert "llc-edge" in codes

    def test_detects_wrong_budget(self, tiny_config):
        design = random_design(tiny_config, np.random.default_rng(0))
        trimmed = NocDesign(placement=design.placement, links=design.links[:-1])
        codes = [v.code for v in ConstraintChecker(tiny_config).violations(trimmed)]
        assert any(code.endswith("-budget") for code in codes)

    def test_detects_disconnection(self, tiny_config):
        # Keep the budgets but concentrate links so a node is isolated if possible:
        # simpler: build an obviously disconnected design by dropping all links
        # touching tile 0 and duplicating others is invalid; instead check helper.
        design = random_design(tiny_config, np.random.default_rng(0))
        assert is_connected(design)
        empty = NocDesign(placement=design.placement, links=())
        assert not is_connected(empty)

    def test_detects_non_permutation(self, tiny_config):
        design = random_design(tiny_config, np.random.default_rng(0))
        placement = list(design.placement)
        placement[0] = placement[1]
        bad = NocDesign(placement=tuple(placement), links=design.links)
        codes = [v.code for v in ConstraintChecker(tiny_config).violations(bad)]
        assert "placement-permutation" in codes

    def test_check_raises_with_details(self, tiny_config):
        design = random_design(tiny_config, np.random.default_rng(0))
        bad = NocDesign(placement=design.placement, links=design.links[:-2])
        with pytest.raises(ValueError, match="infeasible design"):
            ConstraintChecker(tiny_config).check(bad)

    def test_feasible_design_passes_check(self, tiny_config):
        design = random_design(tiny_config, np.random.default_rng(0))
        ConstraintChecker(tiny_config).check(design)


class TestTypedExceptionContract:
    """The message contract ``check()`` has always exposed, now typed.

    Callers that matched the bare ``ValueError`` by its ``"infeasible
    design"`` prefix keep working; new callers get the structured report via
    ``InfeasibleDesignError.report``.
    """

    @pytest.fixture()
    def damaged(self, tiny_config):
        design = random_design(tiny_config, np.random.default_rng(0))
        return NocDesign(placement=design.placement, links=design.links[:-2])

    def test_is_a_value_error(self, tiny_config, damaged):
        with pytest.raises(ValueError):
            ConstraintChecker(tiny_config).check(damaged)
        assert issubclass(InfeasibleDesignError, ValueError)

    def test_message_keeps_historical_prefix(self, tiny_config, damaged):
        with pytest.raises(InfeasibleDesignError) as excinfo:
            ConstraintChecker(tiny_config).check(damaged)
        message = str(excinfo.value)
        assert message.startswith("infeasible design: ")
        # every violation is rendered as "[code] message" in the string
        for violation in excinfo.value.report.violations:
            assert f"[{violation.code}]" in message

    def test_carries_the_structured_report(self, tiny_config, damaged):
        with pytest.raises(InfeasibleDesignError) as excinfo:
            ConstraintChecker(tiny_config).check(damaged)
        report = excinfo.value.report
        assert isinstance(report, ViolationReport)
        assert not report.feasible
        assert report.violations


class TestViolationReport:
    def test_feasible_report_is_empty(self, tiny_config):
        design = random_design(tiny_config, np.random.default_rng(0))
        report = ConstraintChecker(tiny_config).report(design)
        assert report.feasible and not report.fatal
        assert report.violations == ()
        assert "feasible" in report.format()

    def test_budget_violation_details(self, tiny_config):
        design = random_design(tiny_config, np.random.default_rng(0))
        trimmed = NocDesign(placement=design.placement, links=design.links[:-1])
        report = ConstraintChecker(tiny_config).report(trimmed)
        assert not report.feasible
        budget = next(v for v in report.violations if v.code.endswith("-budget"))
        assert budget.severity == SEVERITY_ERROR
        assert budget.detail("delta") == budget.detail("used") - budget.detail("budget")

    def test_placement_violations_are_fatal(self, tiny_config):
        design = random_design(tiny_config, np.random.default_rng(0))
        placement = list(design.placement)
        placement[0] = placement[1]
        bad = NocDesign(placement=tuple(placement), links=design.links)
        report = ConstraintChecker(tiny_config).report(bad)
        assert report.fatal
        (fatal,) = [v for v in report.violations if v.code == "placement-permutation"]
        assert fatal.severity == SEVERITY_FATAL

    def test_report_round_trips_through_json(self, tiny_config):
        design = random_design(tiny_config, np.random.default_rng(0))
        trimmed = NocDesign(placement=design.placement, links=design.links[:-2])
        report = ConstraintChecker(tiny_config).report(trimmed)
        payload = json.loads(report.to_json())
        assert payload == report.to_dict()
        assert payload["platform"] == tiny_config.name
        assert [v["code"] for v in payload["violations"]] == list(report.codes)

    def test_violations_are_hashable_value_objects(self):
        a = ConstraintViolation("demo", "demo message", details=violation_details(x=1))
        b = ConstraintViolation("demo", "demo message", details=violation_details(x=1))
        assert a == b and hash(a) == hash(b)
        assert str(a) == "[demo] demo message"


class TestRepair:
    def test_repair_restores_budgets(self, small_config):
        rng = np.random.default_rng(4)
        design = random_design(small_config, rng)
        damaged = NocDesign(placement=design.placement, links=design.links[:-5])
        repaired = repair_links(damaged, small_config, rng)
        assert ConstraintChecker(small_config).is_feasible(repaired)

    def test_repair_keeps_placement(self, small_config):
        rng = np.random.default_rng(4)
        design = random_design(small_config, rng)
        damaged = NocDesign(placement=design.placement, links=design.links[: len(design.links) // 2])
        repaired = repair_links(damaged, small_config, rng)
        assert repaired.placement == design.placement

    def test_repair_is_noop_for_feasible_links(self, small_config):
        rng = np.random.default_rng(4)
        design = random_design(small_config, rng)
        repaired = repair_links(design, small_config, rng)
        assert ConstraintChecker(small_config).is_feasible(repaired)

    def test_repair_handles_duplicate_and_infeasible_links(self, tiny_config):
        rng = np.random.default_rng(4)
        design = random_design(tiny_config, rng)
        # Inject an infeasible (diagonal) link by replacing one planar link.
        links = list(design.links)
        links[0] = Link.make(0, 5)
        broken = NocDesign(placement=design.placement, links=tuple(links))
        repaired = repair_links(broken, tiny_config, rng)
        assert ConstraintChecker(tiny_config).is_feasible(repaired)
