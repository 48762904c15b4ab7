"""Tests for campaign routing-cache stats and the shard -> tables aggregation."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core import problem as problem_module
from repro.experiments.config import CampaignConfig, ExperimentConfig
from repro.experiments.runner import (
    MANIFEST_NAME,
    aggregate_routing_cache_stats,
    campaign_cells,
    load_manifest,
    run_campaign,
)
from repro.experiments.tables import CampaignAggregate, aggregate_campaign
from tests.oracles.evaluation import FreshEvaluator


@pytest.fixture()
def campaign():
    """2 algorithms x 2 applications x 1 scenario, tiny budget."""
    return CampaignConfig(
        experiment=replace(ExperimentConfig.smoke(), applications=("BFS", "BP")),
        algorithms=("MOEA/D", "NSGA-II"),
        max_evaluations=40,
    )


@pytest.fixture()
def finished_campaign(campaign, tmp_path):
    summary = run_campaign(campaign, tmp_path)
    return campaign, summary


class TestRoutingCacheStats:
    def test_every_shard_records_engine_counters(self, finished_campaign):
        campaign, summary = finished_campaign
        for cell in summary.cells:
            payload = json.loads((summary.output_dir / cell.shard_name).read_text())
            stats = payload["routing_cache"]
            assert stats["enabled"]
            assert stats["requests"] == stats["hits"] + stats["misses"] + stats["incremental_repairs"]
            assert stats["requests"] > 0

    def test_each_cell_caches_only_its_own_topologies(self, finished_campaign):
        """Cells share no routing state: a cell's engine holds at most the
        topologies that cell built itself, and nothing is persisted to disk."""
        campaign, summary = finished_campaign
        for cell in summary.cells:
            stats = json.loads((summary.output_dir / cell.shard_name).read_text())["routing_cache"]
            assert 0 < stats["cached_topologies"] <= stats["misses"] + stats["incremental_repairs"]
            assert stats["cached_bytes"] > 0
            assert not [key for key in stats if key.startswith("store_")]
        assert not (summary.output_dir / "routing_store").exists()
        assert not [key for key in load_manifest(summary.output_dir)["routing_cache"] if key.startswith("store_")]

    def test_manifest_summarises_the_whole_grid(self, finished_campaign):
        campaign, summary = finished_campaign
        manifest = load_manifest(summary.output_dir)
        stats = manifest["routing_cache"]
        assert stats["cells_counted"] == len(summary.cells)
        assert stats["cells_missing_stats"] == 0
        assert stats["hits"] > 0  # placement-only moves must have hit the cache
        assert stats["requests"] == stats["hits"] + stats["misses"] + stats["incremental_repairs"]
        assert 0.0 < stats["hit_rate"] <= 1.0
        # Cache sizes are per-engine gauges, not counters: nothing sums them.
        assert "cached_bytes" not in stats and "cached_topologies" not in stats
        assert summary.routing_cache == stats

    def test_resume_preserves_manifest_stats(self, finished_campaign):
        campaign, summary = finished_campaign
        resumed = run_campaign(campaign, summary.output_dir)
        assert not resumed.executed
        manifest = load_manifest(summary.output_dir)
        assert manifest["routing_cache"] == summary.routing_cache

    def test_aggregation_tolerates_legacy_shards(self, finished_campaign):
        campaign, summary = finished_campaign
        cells = campaign_cells(campaign)
        legacy = summary.output_dir / cells[0].shard_name
        payload = json.loads(legacy.read_text())
        del payload["routing_cache"]
        legacy.write_text(json.dumps(payload))
        stats = aggregate_routing_cache_stats(summary.output_dir, cells)
        assert stats["cells_counted"] == len(cells) - 1
        assert stats["cells_missing_stats"] == 1

    def test_routing_cache_does_not_change_results(self, campaign, tmp_path, monkeypatch):
        on = run_campaign(campaign, tmp_path / "on")
        # Inline cells build their problems in this process, so every cell
        # of the second campaign scores each design on a fresh evaluator.
        monkeypatch.setattr(problem_module, "ObjectiveEvaluator", FreshEvaluator)
        off = run_campaign(campaign, tmp_path / "off")
        for cell in on.cells:
            payload_on = json.loads((on.output_dir / cell.shard_name).read_text())
            payload_off = json.loads((off.output_dir / cell.shard_name).read_text())
            np.testing.assert_allclose(
                np.asarray(payload_on["objectives"]),
                np.asarray(payload_off["objectives"]),
                rtol=1e-12,
            )
            assert payload_on["designs"] == payload_off["designs"]
            assert payload_off["routing_cache"]["requests"] == 0


class TestAggregateCampaign:
    def test_runs_grouped_by_application_and_scenario(self, finished_campaign):
        campaign, summary = finished_campaign
        aggregate = aggregate_campaign(summary.output_dir)
        assert isinstance(aggregate, CampaignAggregate)
        assert set(aggregate.runs) == {("BFS", 3), ("BP", 3)}
        for results in aggregate.runs.values():
            assert set(results) == {"MOEA/D", "NSGA-II"}
        assert aggregate.algorithms == ("MOEA/D", "NSGA-II")
        assert aggregate.objective_counts == (3,)
        assert aggregate.routing_cache["hits"] > 0

    def test_target_prefers_moela_else_first(self, finished_campaign):
        campaign, summary = finished_campaign
        aggregate = aggregate_campaign(summary.output_dir)
        assert aggregate.target == "MOEA/D"  # no MOELA in this grid
        assert aggregate.baselines == ("NSGA-II",)

    def test_tables_render_without_rerunning(self, finished_campaign):
        campaign, summary = finished_campaign
        aggregate = aggregate_campaign(summary.output_dir)
        table1 = aggregate.table1()
        table2 = aggregate.table2()
        assert {cell.application for cell in table1.cells} == {"BFS", "BP"}
        assert all(cell.baseline == "NSGA-II" for cell in table1.cells)
        assert all(np.isfinite(cell.value) and cell.value > 0 for cell in table1.cells)
        assert {cell.application for cell in table2.cells} == {"BFS", "BP"}

    def test_partial_campaign_renders_comparable_cells_only(self, finished_campaign):
        campaign, summary = finished_campaign
        # Drop one algorithm's shard for BP: the BP comparison disappears,
        # the BFS one stays.
        for cell in summary.cells:
            if cell.application == "BP" and cell.algorithm == "NSGA-II":
                (summary.output_dir / cell.shard_name).unlink()
        aggregate = aggregate_campaign(summary.output_dir)
        table1 = aggregate.table1()
        assert {cell.application for cell in table1.cells} == {"BFS"}

    def test_strict_builders_still_raise_on_missing_algorithms(self, finished_campaign):
        """build_table1's experiment-driven path keeps its KeyError contract."""
        campaign, summary = finished_campaign
        from repro.experiments.tables import build_table1

        aggregate = aggregate_campaign(summary.output_dir)
        with pytest.raises(KeyError, match="MOELA"):
            build_table1(campaign.experiment, runs=aggregate.runs)

    def test_empty_campaign_raises_on_target(self, campaign, tmp_path):
        cells = campaign_cells(campaign)
        from repro.experiments.runner import _manifest_payload
        from repro.utils.serialization import write_json_atomic

        write_json_atomic(_manifest_payload(campaign, cells), tmp_path / MANIFEST_NAME)
        aggregate = aggregate_campaign(tmp_path)
        with pytest.raises(ValueError, match="no completed shards"):
            _ = aggregate.target
