"""Tests for the Table I / Table II / Fig. 3 builders."""

import json
import shutil

import numpy as np
import pytest

from repro import Study
from repro.experiments.runner import MANIFEST_NAME, load_manifest
from repro.experiments.tables import (
    BASELINES,
    aggregate_campaign,
    build_figure3,
    format_figure3,
    format_table,
)


@pytest.fixture(scope="module")
def smoke_runs():
    study = Study(preset="smoke").algorithms("MOELA", *BASELINES)
    return study.experiment(), study.run()


@pytest.fixture(scope="module")
def smoke_campaign(tmp_path_factory):
    """The ``repro campaign --smoke`` grid: MOEA/D vs NSGA-II, no MOELA."""
    output_dir = tmp_path_factory.mktemp("smoke-campaign")
    study = (
        Study(preset="smoke")
        .apps("BFS", "BP")
        .evaluations(60)
        .algorithms("MOEA/D", "NSGA-II")
        .campaign(output_dir)
    )
    study.run()
    return study.experiment(), output_dir


class TestRunMap:
    def test_every_cell_has_all_algorithms(self, smoke_runs):
        experiment, result = smoke_runs
        expected_keys = {
            (app, m) for app in experiment.applications for m in experiment.objective_counts
        }
        assert set(result.runs) == expected_keys
        for results in result.runs.values():
            assert set(results) == {"MOELA", *BASELINES}
        assert result.target == "MOELA"
        assert result.baselines == BASELINES


class TestTables:
    def test_table1_structure(self, smoke_runs):
        experiment, result = smoke_runs
        table = result.table1()
        assert set(table.applications()) == set(experiment.applications)
        assert len(table.cells) == (
            len(BASELINES) * len(experiment.applications) * len(experiment.objective_counts)
        )
        for cell in table.cells:
            assert np.isfinite(cell.value)
            assert cell.value >= 0

    def test_table2_structure(self, smoke_runs):
        experiment, result = smoke_runs
        table = result.table2()
        assert len(table.cells) == (
            len(BASELINES) * len(experiment.applications) * len(experiment.objective_counts)
        )
        for cell in table.cells:
            assert np.isfinite(cell.value)

    def test_column_average_consistency(self, smoke_runs):
        experiment, result = smoke_runs
        table = result.table2()
        baseline, objectives = table.columns()[0]
        values = [table.value(app, baseline, objectives) for app in table.applications()]
        assert table.column_average(baseline, objectives) == pytest.approx(np.mean(values))

    def test_missing_cell_lookup_raises(self, smoke_runs):
        experiment, result = smoke_runs
        table = result.table1()
        with pytest.raises(KeyError):
            table.value("BFS", "MOEA/D", 99)

    def test_figure3_structure(self, smoke_runs):
        experiment, result = smoke_runs
        figure = build_figure3(experiment, result.runs)
        # Smoke config only runs 3 objectives, so the figure falls back to it.
        assert all(cell.num_objectives == 3 for cell in figure.cells)
        assert len(figure.cells) == len(BASELINES) * len(experiment.applications)
        for cell in figure.cells:
            assert np.isfinite(cell.value)

    def test_formatting_includes_rows_and_average(self, smoke_runs):
        experiment, result = smoke_runs
        table = result.table1()
        text = format_table(table)
        assert "Average" in text
        for app in experiment.applications:
            assert app in text
        figure_text = format_figure3(build_figure3(experiment, result.runs))
        assert "EDP" in figure_text


class TestComparisonWithoutMOELA:
    def test_figure3_compares_the_target_with_the_baselines(self, smoke_campaign):
        experiment, output_dir = smoke_campaign
        result = aggregate_campaign(output_dir)
        assert (result.target, result.baselines) == ("MOEA/D", ("NSGA-II",))
        figure = build_figure3(experiment, result.runs)
        assert "vs MOEA/D" in figure.name
        assert figure.columns() == [("NSGA-II", 3)]
        assert figure.applications() == result.table1().applications() == ["BFS", "BP"]
        for cell in figure.cells:
            assert np.isfinite(cell.value)
        assert "EDP" in format_figure3(figure)

    def test_figure3_skips_groups_without_the_target(self, smoke_campaign):
        experiment, output_dir = smoke_campaign
        runs = aggregate_campaign(output_dir).runs
        del runs[("BP", 3)]["MOEA/D"]
        figure = build_figure3(experiment, runs)
        assert figure.applications() == ["BFS"]
        assert figure.columns() == [("NSGA-II", 3)]


class TestRoutingCacheSummary:
    def test_summary_sums_the_shards_without_the_manifest_record(self, smoke_campaign, tmp_path):
        """A campaign killed before its final manifest rewrite has no
        ``routing_cache`` record; every cell owns its engine, so the summary
        is the sum of the shards' own counters."""
        _, output_dir = smoke_campaign
        recorded = load_manifest(output_dir)["routing_cache"]
        assert recorded["requests"] > 0 and recorded["cells_counted"] == 4
        copy = tmp_path / "campaign"
        shutil.copytree(output_dir, copy)
        manifest = load_manifest(copy)
        del manifest["routing_cache"]
        (copy / MANIFEST_NAME).write_text(json.dumps(manifest))
        result = aggregate_campaign(copy)
        assert result.campaign.routing_cache is None
        assert result.routing_cache_summary() == recorded
