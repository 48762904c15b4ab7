"""Integration tests for async campaign execution over the durable event log.

A pooled campaign streams shard/iteration events to the caller through the
manifest-side JSONL log, inline and pooled cells emit identical streams, the
non-blocking submit/poll handle works, and a killed + resumed campaign's log
replays a consistent, monotonic event sequence.
"""

from dataclasses import replace

import pytest

from repro.experiments.config import CampaignConfig, ExperimentConfig
from repro.experiments.runner import (
    campaign_cells,
    load_campaign_results,
    run_campaign,
    submit_campaign,
)
from repro.study.event_log import EVENT_LOG_NAME, read_event_log
from repro.study.events import StudyEvent


@pytest.fixture()
def campaign():
    """2 algorithms x 2 applications x 1 scenario, tiny budget."""
    return CampaignConfig(
        experiment=replace(ExperimentConfig.smoke(), applications=("BFS", "BP")),
        algorithms=("MOEA/D", "NSGA-II"),
        max_evaluations=40,
    )


def _cell_stream(events, key):
    """The event kinds of one cell, in stream order."""
    kinds = []
    for event in events:
        if event.payload.get("key") == key:
            kinds.append(event.kind)
        elif event.kind in ("run_started", "iteration", "run_finished"):
            # Optimiser events carry identity, not the cell key.
            algorithm, application, _ = key.split("_")
            if (
                event.algorithm is not None
                and event.application == application
                and event.algorithm.replace("/", "-") == algorithm
            ):
                kinds.append(event.kind)
    return kinds


def assert_consistent_replay(records):
    """The durability invariant: per-origin sequences split into incarnations
    at each ``seq == 0`` and every incarnation counts up by exactly one."""
    by_origin: dict[str, list[int]] = {}
    for record in records:
        by_origin.setdefault(record.origin, []).append(record.seq)
    for origin, seqs in by_origin.items():
        expected = 0
        for seq in seqs:
            if seq == 0:
                expected = 0  # new incarnation (resume / re-run)
            assert seq == expected, f"origin {origin!r}: seq {seq} != {expected} in {seqs}"
            expected += 1


class TestPooledEventStream:
    def test_pooled_campaign_streams_cell_events_through_the_log(self, campaign, tmp_path):
        """Acceptance criterion: workers>1 streams shard/iteration events."""
        events: list[StudyEvent] = []
        run_campaign(replace(campaign, max_workers=2), tmp_path, on_event=events.append)

        kinds = [e.kind for e in events]
        assert kinds[0] == "campaign_started" and kinds[-1] == "campaign_finished"
        assert kinds.count("shard_started") == 4
        assert kinds.count("shard_finished") == 4
        # The whole point of the log: per-iteration optimiser events cross
        # the process-pool boundary.
        assert kinds.count("run_started") == 4 and kinds.count("run_finished") == 4
        assert kinds.count("iteration") > 0

        # Every received event round-tripped through the durable log.
        records = read_event_log(tmp_path / EVENT_LOG_NAME)
        assert len(records) == len(events)
        assert_consistent_replay(records)

    def test_inline_and_pooled_emit_identical_per_cell_streams(self, campaign, tmp_path):
        inline_events: list[StudyEvent] = []
        pooled_events: list[StudyEvent] = []
        run_campaign(campaign, tmp_path / "inline", on_event=inline_events.append)
        run_campaign(
            replace(campaign, max_workers=2), tmp_path / "pool", on_event=pooled_events.append
        )
        for cell in campaign_cells(campaign):
            assert _cell_stream(inline_events, cell.key) == _cell_stream(pooled_events, cell.key)

    def test_shard_finished_events_carry_counters(self, campaign, tmp_path):
        events: list[StudyEvent] = []
        run_campaign(replace(campaign, max_workers=2), tmp_path, on_event=events.append)
        finished = [e for e in events if e.kind == "shard_finished"]
        assert {e.payload["key"] for e in finished} == {c.key for c in campaign_cells(campaign)}
        for event in finished:
            assert event.evaluations == 40
            assert event.payload["routing_cache"]["requests"] > 0


class TestCampaignExecutionHandle:
    def test_submit_poll_wait(self, campaign, tmp_path):
        execution = submit_campaign(replace(campaign, max_workers=2), tmp_path)
        progress = execution.progress()
        assert progress["cells"] == 4  # poll works while running
        summary = execution.wait(timeout=600)
        assert execution.done()
        assert len(summary.executed) == 4
        final = execution.progress()
        assert final == {
            "cells": 4, "done": 4, "executed": 4, "skipped": 0,
            "running": 0, "evaluations": 160, "finished": True,
        }

    def test_events_iterator_yields_full_stream_then_ends(self, campaign, tmp_path):
        execution = submit_campaign(campaign, tmp_path)
        kinds = [event.kind for event in execution.events()]
        assert kinds[0] == "campaign_started" and kinds[-1] == "campaign_finished"
        assert kinds.count("shard_finished") == 4
        summary = execution.wait(timeout=60)  # returns immediately after events() drained
        assert len(summary.executed) == 4

    def test_subscriber_is_pumped_during_wait(self, campaign, tmp_path):
        events: list[StudyEvent] = []
        execution = submit_campaign(campaign, tmp_path, on_event=events.append)
        execution.wait(timeout=600)
        assert [e.kind for e in events][0] == "campaign_started"
        assert [e.kind for e in events][-1] == "campaign_finished"

    def test_wait_reraises_campaign_errors(self, campaign, tmp_path):
        run_campaign(campaign, tmp_path)
        other = replace(campaign, algorithms=("NSGA-II",))
        with pytest.raises(ValueError, match="different campaign grid"):
            submit_campaign(other, tmp_path).wait(timeout=600)


class TestDurabilityAcrossKillAndResume:
    def test_killed_and_resumed_campaign_replays_consistently(self, campaign, tmp_path):
        """Simulate a SIGKILL mid-campaign: two cells' shards never landed and
        the log's final record was torn mid-write.  The resumed campaign must
        append to the same log, and the full replay must be a consistent,
        monotonic sequence with exactly one torn record skipped."""
        summary = run_campaign(replace(campaign, max_workers=2), tmp_path)
        log_path = tmp_path / EVENT_LOG_NAME
        victims = summary.cells[:2]
        for victim in victims:
            summary.shard_path(victim.key).unlink()
        # Tear the last record as a kill mid-``write`` would.
        log_path.write_bytes(log_path.read_bytes()[:-7])

        events: list[StudyEvent] = []
        resumed = run_campaign(replace(campaign, max_workers=2), tmp_path, on_event=events.append)
        assert sorted(resumed.executed) == sorted(v.key for v in victims)

        # The resumed invocation's subscribers saw only its own events.
        kinds = [e.kind for e in events]
        assert kinds[0] == "campaign_started" and kinds[-1] == "campaign_finished"
        assert kinds.count("shard_skipped") == 2 and kinds.count("shard_finished") == 2

        # Whole-log replay: both invocations, consistent and monotonic.
        from repro.study.event_log import EventLogReader

        reader = EventLogReader(log_path)
        records = reader.poll()
        assert reader.corrupt_lines == 1  # exactly the torn record
        assert_consistent_replay(records)
        campaign_level = [r for r in records if r.origin == "campaign"]
        assert [r.event.kind for r in campaign_level][0] == "campaign_started"
        # Two invocations bracket the log; the first's campaign_finished was
        # the record the kill tore, so only the resumed one's survives.
        assert sum(1 for r in campaign_level if r.event.kind == "campaign_started") == 2
        assert campaign_level[-1].event.kind == "campaign_finished"
        # Every cell's events are present for both incarnations where re-run.
        finished_keys = [
            r.event.payload["key"] for r in records if r.event.kind == "shard_finished"
        ]
        for victim in victims:
            assert finished_keys.count(victim.key) >= 1
        # And the resumed directory is complete: every cell loads.
        assert len(dict(load_campaign_results(tmp_path))) == 4
