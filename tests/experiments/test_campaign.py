"""Tests for the sharded campaign engine (grid fan-out, manifest, resume)."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.config import CampaignConfig, ExperimentConfig
from repro.experiments.runner import (
    MANIFEST_NAME,
    CampaignCell,
    campaign_cells,
    campaign_status,
    load_campaign_results,
    load_manifest,
    run_campaign,
)


@pytest.fixture()
def campaign():
    """2 algorithms x 2 applications x 1 scenario, tiny budget."""
    return CampaignConfig(
        experiment=replace(ExperimentConfig.smoke(), applications=("BFS", "BP")),
        algorithms=("MOEA/D", "NSGA-II"),
        max_evaluations=40,
    )


class TestCampaignCells:
    def test_grid_is_full_cross_product(self, campaign):
        cells = campaign_cells(campaign)
        keys = {(c.algorithm, c.application, c.num_objectives) for c in cells}
        assert keys == {
            (alg, app, m)
            for alg in campaign.algorithms
            for app in campaign.experiment.applications
            for m in campaign.experiment.objective_counts
        }

    def test_cell_keys_are_filesystem_safe(self, campaign):
        for cell in campaign_cells(campaign):
            assert "/" not in cell.key and "/" not in cell.shard_name

    def test_unknown_algorithm_rejected(self, campaign):
        with pytest.raises(ValueError):
            campaign_cells(replace(campaign, algorithms=("SIMULATED-ANNEALING",)))

    def test_empty_algorithms_means_all(self, campaign):
        cells = campaign_cells(replace(campaign, algorithms=()))
        assert {c.algorithm for c in cells} == {"MOELA", "MOEA/D", "MOOS", "MOO-STAGE", "NSGA-II"}

    def test_cell_round_trips_through_dict(self, campaign):
        for cell in campaign_cells(campaign):
            assert CampaignCell.from_dict(cell.to_dict()) == cell

    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(experiment=ExperimentConfig.smoke(), max_workers=0)
        with pytest.raises(ValueError):
            CampaignConfig(experiment=ExperimentConfig.smoke(), max_evaluations=0)


class TestRunCampaign:
    def test_runs_every_cell_and_writes_shards(self, campaign, tmp_path):
        summary = run_campaign(campaign, tmp_path)
        assert len(summary.executed) == 4 and not summary.skipped
        assert (tmp_path / MANIFEST_NAME).exists()
        assert all(campaign_status(tmp_path).values())
        loaded = dict(load_campaign_results(tmp_path))
        assert len(loaded) == 4
        for cell, result in loaded.items():
            assert result.evaluations == 40
            assert result.objectives.shape[1] == cell.num_objectives

    def test_manifest_covers_grid_before_cells_complete(self, campaign, tmp_path):
        run_campaign(campaign, tmp_path)
        manifest = load_manifest(tmp_path)
        assert [CampaignCell.from_dict(e) for e in manifest["cells"]] == campaign_cells(campaign)
        assert manifest["cell_budget"] == 40

    def test_resume_skips_completed_and_reruns_deleted_shard(self, campaign, tmp_path):
        """Acceptance criterion: delete one shard, resume runs only that cell."""
        summary = run_campaign(campaign, tmp_path)
        victim = summary.cells[0]
        shard_mtimes = {c.key: summary.shard_path(c.key).stat().st_mtime_ns for c in summary.cells}
        summary.shard_path(victim.key).unlink()

        resumed = run_campaign(campaign, tmp_path)
        assert resumed.executed == [victim.key]
        assert sorted(resumed.skipped) == sorted(
            c.key for c in summary.cells if c.key != victim.key
        )
        for cell in summary.cells:
            if cell.key != victim.key:
                assert resumed.shard_path(cell.key).stat().st_mtime_ns == shard_mtimes[cell.key]
        assert all(campaign_status(tmp_path).values())

    def test_resume_ignores_retired_repair_records(self, campaign, tmp_path):
        """Directories written while campaigns could repair infeasible broods
        carry a ``repair`` record in every shard and in the manifest; they
        still resume without re-running a cell."""
        summary = run_campaign(campaign, tmp_path)
        counters = {"attempted": 0, "repaired": 0, "evaluations": 0}
        for cell in summary.cells:
            shard = summary.shard_path(cell.key)
            payload = json.loads(shard.read_text())
            payload["repair"] = counters
            shard.write_text(json.dumps(payload))
        manifest = load_manifest(tmp_path)
        manifest["repair"] = {"cells_counted": 4, "cells_missing_stats": 0, **counters}
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))

        resumed = run_campaign(campaign, tmp_path)
        assert not resumed.executed and len(resumed.skipped) == 4
        assert len(dict(load_campaign_results(tmp_path))) == 4

    def test_resume_ignores_retired_store_records(self, campaign, tmp_path):
        """Directories written while campaigns could persist routes to disk
        hold a ``routing_store/`` directory, and their shards and manifest
        count ``store_hits``/``store_saves``; they still resume without
        re-running a cell, and the rewritten manifest drops the store keys."""
        summary = run_campaign(campaign, tmp_path)
        store_dir = tmp_path / "routing_store"
        store_dir.mkdir()
        (store_dir / "0123abcd.npz").write_bytes(b"retired route table")
        for cell in summary.cells:
            shard = summary.shard_path(cell.key)
            payload = json.loads(shard.read_text())
            payload["routing_cache"].update(store_hits=3, store_saves=5)
            shard.write_text(json.dumps(payload))
        manifest = load_manifest(tmp_path)
        manifest["routing_cache"].update(store_hits=12, store_saves=20)
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))

        resumed = run_campaign(campaign, tmp_path)
        assert not resumed.executed and len(resumed.skipped) == 4
        assert len(dict(load_campaign_results(tmp_path))) == 4
        stats = load_manifest(tmp_path)["routing_cache"]
        assert stats["cells_counted"] == 4
        assert not [key for key in stats if key.startswith("store_")]

    def test_shards_and_manifest_carry_no_repair_records(self, campaign, tmp_path):
        summary = run_campaign(campaign, tmp_path)
        manifest = load_manifest(tmp_path)
        assert "repair" not in manifest
        assert all("repair" not in entry for entry in manifest["cells"])
        for cell in summary.cells:
            assert "repair" not in json.loads(summary.shard_path(cell.key).read_text())

    def test_resume_false_reruns_everything(self, campaign, tmp_path):
        run_campaign(campaign, tmp_path)
        rerun = run_campaign(replace(campaign, resume=False), tmp_path)
        assert len(rerun.executed) == 4 and not rerun.skipped

    def test_partial_shard_is_rerun(self, campaign, tmp_path):
        summary = run_campaign(campaign, tmp_path)
        truncated = summary.shard_path(summary.cells[0].key)
        truncated.write_text('{"cell": ')  # simulate a non-atomic write / corruption
        resumed = run_campaign(campaign, tmp_path)
        assert resumed.executed == [summary.cells[0].key]

    def test_different_grid_in_same_dir_rejected(self, campaign, tmp_path):
        run_campaign(campaign, tmp_path)
        other = replace(campaign, algorithms=("NSGA-II",))
        with pytest.raises(ValueError):
            run_campaign(other, tmp_path)

    def test_different_budget_in_same_dir_rejected(self, campaign, tmp_path):
        """Resuming with another per-cell budget would silently mix budgets."""
        run_campaign(campaign, tmp_path)
        with pytest.raises(ValueError, match="budget"):
            run_campaign(replace(campaign, max_evaluations=400), tmp_path)

    def test_non_dict_shard_json_is_rerun(self, campaign, tmp_path):
        summary = run_campaign(campaign, tmp_path)
        foreign = summary.shard_path(summary.cells[0].key)
        foreign.write_text("[]")  # valid JSON, wrong shape
        resumed = run_campaign(campaign, tmp_path)
        assert resumed.executed == [summary.cells[0].key]

    def test_results_are_deterministic_per_cell(self, campaign, tmp_path):
        run_campaign(campaign, tmp_path / "a")
        run_campaign(campaign, tmp_path / "b")
        for (cell_a, result_a), (_, result_b) in zip(
            load_campaign_results(tmp_path / "a"), load_campaign_results(tmp_path / "b")
        ):
            np.testing.assert_array_equal(result_a.objectives, result_b.objectives)

    def test_process_pool_path_matches_inline(self, campaign, tmp_path):
        run_campaign(campaign, tmp_path / "inline")
        run_campaign(replace(campaign, max_workers=2), tmp_path / "pool")
        inline = {c.key: r.objectives for c, r in load_campaign_results(tmp_path / "inline")}
        pooled = {c.key: r.objectives for c, r in load_campaign_results(tmp_path / "pool")}
        assert inline.keys() == pooled.keys()
        for key in inline:
            np.testing.assert_array_equal(inline[key], pooled[key])
