"""Tests for the Table I / Table II / Fig. 3 builders."""

import numpy as np
import pytest

from repro import Study
from repro.experiments.tables import (
    BASELINES,
    build_figure3,
    format_figure3,
    format_table,
)


@pytest.fixture(scope="module")
def smoke_runs():
    study = Study(preset="smoke").algorithms("MOELA", *BASELINES)
    return study.experiment(), study.run()


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
