"""Tests for shard compaction (rollup file, manifest index, transparent reads).

Acceptance criteria: the rollup reproduces identical Table I/II output as
loose shards (byte-for-byte on the rendered text and on every stored value),
and a campaign resumes correctly from a compacted directory.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.compaction import compact_campaign
from repro.experiments.config import CampaignConfig, ExperimentConfig
from repro.experiments.runner import (
    ROLLUP_NAME,
    campaign_status,
    cell_payload,
    load_campaign_results,
    load_manifest,
    run_campaign,
)
from repro.experiments.tables import aggregate_campaign
from repro.utils.serialization import write_json_atomic


@pytest.fixture()
def campaign():
    return CampaignConfig(
        experiment=replace(ExperimentConfig.smoke(), applications=("BFS", "BP")),
        algorithms=("MOEA/D", "NSGA-II"),
        max_evaluations=40,
    )


@pytest.fixture()
def finished_dir(campaign, tmp_path):
    run_campaign(campaign, tmp_path)
    return tmp_path


def _tables_text(output_dir):
    return aggregate_campaign(output_dir).format_tables()


class TestCompactCampaign:
    def test_rolls_every_shard_and_deletes_loose_files(self, campaign, finished_dir):
        summary = compact_campaign(finished_dir)
        assert summary.total == 4 and len(summary.compacted) == 4
        assert not summary.pending and len(summary.removed_shards) == 4
        assert summary.rollup_path.exists()
        assert not list(finished_dir.glob("cell_*.json"))
        manifest = load_manifest(finished_dir)
        shard_names = {entry["shard"] for entry in manifest["cells"]}
        assert {f"cell_{key}.json" for key in manifest["rollup"]["cells"]} == shard_names

    def test_aggregate_output_identical_before_and_after(self, campaign, finished_dir):
        """Byte-for-byte acceptance criterion."""
        before_text = _tables_text(finished_dir)
        before = {c.key: r for c, r in load_campaign_results(finished_dir)}
        before_stats = aggregate_campaign(finished_dir).campaign.routing_cache

        compact_campaign(finished_dir)

        assert _tables_text(finished_dir) == before_text
        after = {c.key: r for c, r in load_campaign_results(finished_dir)}
        assert before.keys() == after.keys()
        for key in before:
            np.testing.assert_array_equal(before[key].objectives, after[key].objectives)
            np.testing.assert_array_equal(before[key].final_front(), after[key].final_front())
            assert before[key].evaluations == after[key].evaluations
            assert len(before[key].history) == len(after[key].history)
        # The manifest summary (recomputed on the next campaign run) and the
        # stored one stay in agreement.
        assert aggregate_campaign(finished_dir).campaign.routing_cache == before_stats

    def test_status_reports_compacted_cells_complete(self, finished_dir):
        compact_campaign(finished_dir)
        assert all(campaign_status(finished_dir).values())

    def test_resume_from_compacted_directory_skips_everything(self, campaign, finished_dir):
        compact_campaign(finished_dir)
        resumed = run_campaign(campaign, finished_dir)
        assert resumed.executed == [] and len(resumed.skipped) == 4
        # The rollup record survived the manifest rewrite.
        assert load_manifest(finished_dir)["rollup"]["cells"]

    def test_single_cell_read_uses_the_byte_range_index(self, finished_dir):
        compact_campaign(finished_dir)
        manifest = load_manifest(finished_dir)
        rollup = manifest["rollup"]
        cells = list(load_campaign_results(finished_dir))
        assert len(cells) == 4
        # Each index entry parses standalone via seek+read.
        for key, (offset, length) in rollup["cells"].items():
            with open(finished_dir / ROLLUP_NAME, "rb") as handle:
                handle.seek(offset)
                payload = json.loads(handle.read(length))
            assert payload["cell"]["seed"] >= 0

    def test_partial_campaign_compacts_incrementally(self, campaign, finished_dir):
        # Simulate a half-finished campaign: two shards missing.
        victims = [c for c in run_campaign(campaign, finished_dir).cells][:2]
        for victim in victims:
            (finished_dir / victim.shard_name).unlink()
        first = compact_campaign(finished_dir)
        assert len(first.compacted) == 2 and len(first.pending) == 2

        # Resume executes only the missing cells, then a second compaction
        # carries the old rollup entries over and folds the new shards in.
        resumed = run_campaign(campaign, finished_dir)
        assert sorted(resumed.executed) == sorted(v.key for v in victims)
        second = compact_campaign(finished_dir)
        assert len(second.carried_over) == 2 and len(second.compacted) == 2
        assert len(dict(load_campaign_results(finished_dir))) == 4

    def test_fresh_loose_shard_supersedes_stale_rollup_entry(self, campaign, finished_dir):
        compact_campaign(finished_dir)
        cells = run_campaign(campaign, finished_dir).cells
        target = cells[0]
        payload = cell_payload(finished_dir, target, load_manifest(finished_dir).get("rollup"))
        payload["evaluations"] = 999  # a re-run would write a fresh shard
        write_json_atomic(payload, finished_dir / target.shard_name)

        loaded = {c.key: r for c, r in load_campaign_results(finished_dir)}
        assert loaded[target.key].evaluations == 999

        # Re-compaction folds the fresh shard in, replacing the stale entry.
        summary = compact_campaign(finished_dir)
        assert target.key in summary.compacted
        reloaded = {c.key: r for c, r in load_campaign_results(finished_dir)}
        assert reloaded[target.key].evaluations == 999

    def test_nothing_to_compact_leaves_directory_untouched(self, campaign, tmp_path):
        # Manifest exists (written before any cell) but no cell completed.
        cells_dir = tmp_path / "empty"
        summary = run_campaign(replace(campaign, max_evaluations=40), cells_dir)
        for cell in summary.cells:
            (cells_dir / cell.shard_name).unlink()
        outcome = compact_campaign(cells_dir)
        assert outcome.total == 0 and len(outcome.pending) == 4
        assert not (cells_dir / ROLLUP_NAME).exists()
        assert "rollup" not in load_manifest(cells_dir)

    def test_compaction_is_idempotent(self, finished_dir):
        compact_campaign(finished_dir)
        text = _tables_text(finished_dir)
        again = compact_campaign(finished_dir)
        assert len(again.carried_over) == 4 and not again.compacted
        assert _tables_text(finished_dir) == text

    def test_recompaction_writes_a_new_generation_and_retires_the_old(self, finished_dir):
        """The live index's file is never overwritten: each compaction writes
        a fresh generation, so a crash before the manifest rewrite leaves the
        previous rollup fully readable."""
        first = compact_campaign(finished_dir)
        assert first.rollup_path.name == ROLLUP_NAME
        second = compact_campaign(finished_dir)
        assert second.rollup_path.name == "rollup.2.jsonl"
        manifest = load_manifest(finished_dir)
        assert manifest["rollup"]["file"] == "rollup.2.jsonl"
        assert manifest["rollup"]["generation"] == 2
        assert not (finished_dir / ROLLUP_NAME).exists()  # superseded file retired
        assert len(dict(load_campaign_results(finished_dir))) == 4

    def test_crash_between_rollup_write_and_manifest_keeps_old_index_valid(self, finished_dir):
        """Simulate the torn re-compaction: a new generation landed on disk
        but the manifest still points at the old one — every read must keep
        working off the old, untouched generation."""
        compact_campaign(finished_dir)
        manifest_before = load_manifest(finished_dir)
        text = _tables_text(finished_dir)
        # The next generation's file appears (as a crash mid-compaction would
        # leave it) without the manifest update.
        (finished_dir / "rollup.2.jsonl").write_text('{"not": "indexed"}\n')
        assert load_manifest(finished_dir) == manifest_before
        assert _tables_text(finished_dir) == text
        assert all(campaign_status(finished_dir).values())

    def test_compaction_during_a_running_campaign_survives_the_final_manifest_rewrite(
        self, campaign, tmp_path, monkeypatch
    ):
        """compact_campaign is documented safe on a still-running directory:
        the campaign's end-of-run manifest rewrite must re-read (not clobber)
        a rollup record added while its cells were executing."""
        import repro.experiments.runner as runner_mod

        original = runner_mod._run_campaign_cell
        compacted_during_run: list[int] = []

        def cell_then_compact(campaign_cfg, cell, output_dir, **kwargs):
            # Compact synchronously right after the first cell completes,
            # while the remaining cells are still pending — deterministic
            # "concurrent repro compact" against the inline campaign body.
            outcome = original(campaign_cfg, cell, output_dir, **kwargs)
            if not compacted_during_run:
                compacted_during_run.append(compact_campaign(tmp_path).total)
            return outcome

        monkeypatch.setattr(runner_mod, "_run_campaign_cell", cell_then_compact)
        run_campaign(campaign, tmp_path)
        monkeypatch.undo()

        assert compacted_during_run == [1]  # compacted after the first cell only
        manifest = load_manifest(tmp_path)
        assert "rollup" in manifest and len(manifest["rollup"]["cells"]) == 1
        assert all(campaign_status(tmp_path).values())
        resumed = run_campaign(campaign, tmp_path)
        assert resumed.executed == [] and len(resumed.skipped) == 4
