"""Seeded-equivalence tests for the scenario axis (the PR's acceptance bar).

Two bit-identity guarantees are pinned at rtol=0:

* adding the scenario axis changed *nothing* for identity campaigns — an
  identity-only campaign's shards, cell payloads and derived seeds are
  byte-compatible with the pre-scenario format, so old directories resume;
* a campaign with a fault axis is bit-identical across inline vs pooled cell
  execution, a kill/resume cycle, and shard compaction.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.compaction import compact_campaign
from repro.experiments.config import CampaignConfig, ExperimentConfig
from repro.experiments.runner import (
    campaign_cells,
    load_campaign_results,
    run_campaign,
)

FAULT_KEY = "link_failure(k=1,mode=remove,derate_factor=0.5)"


def smoke_campaign(scenarios=("identity",), **overrides) -> CampaignConfig:
    experiment = replace(
        ExperimentConfig.smoke(),
        applications=("BFS", "BP"),
        scenario_models=tuple(scenarios),
    )
    settings = {"algorithms": ("MOEA/D", "NSGA-II"), "max_evaluations": 40}
    settings.update(overrides)
    return CampaignConfig(experiment=experiment, **settings)


def arrays_of(output_dir):
    """Every float array a shard persists, keyed by cell."""
    out = {}
    for cell, result in load_campaign_results(output_dir):
        out[cell.key] = {
            "objectives": result.objectives,
            "fronts": [s.front for s in result.history],
            "eval_counts": [s.evaluations for s in result.history],
        }
    return out


def assert_bit_identical(a, b):
    assert a.keys() == b.keys()
    for key in a:
        np.testing.assert_allclose(a[key]["objectives"], b[key]["objectives"], rtol=0, atol=0)
        assert a[key]["eval_counts"] == b[key]["eval_counts"]
        assert len(a[key]["fronts"]) == len(b[key]["fronts"])
        for front_a, front_b in zip(a[key]["fronts"], b[key]["fronts"]):
            np.testing.assert_allclose(front_a, front_b, rtol=0, atol=0)


class TestIdentityAxisIsInvisible:
    """The scenario axis must not perturb pre-existing campaigns at all."""

    def test_identity_cells_serialize_without_scenario_field(self):
        for cell in campaign_cells(smoke_campaign()):
            assert cell.scenario == "identity"
            assert "scenario" not in cell.to_dict()
            assert FAULT_KEY not in cell.key

    def test_identity_seeds_unchanged_by_adding_fault_axis(self):
        """Faulted cells extend the grid; identity cells keep their seeds."""
        nominal = {
            (c.algorithm, c.application, c.num_objectives): c.seed
            for c in campaign_cells(smoke_campaign())
        }
        widened = campaign_cells(smoke_campaign(("identity", FAULT_KEY)))
        for cell in widened:
            if cell.scenario == "identity":
                assert cell.seed == nominal[(cell.algorithm, cell.application, cell.num_objectives)]
            else:
                assert cell.seed != nominal[(cell.algorithm, cell.application, cell.num_objectives)]

    def test_identity_campaign_bit_identical_to_default_config(self, tmp_path):
        """scenario_models=("identity",) is byte-for-byte the default grid."""
        explicit = smoke_campaign(("identity",))
        run_campaign(explicit, tmp_path / "explicit")
        implicit = CampaignConfig(
            experiment=replace(ExperimentConfig.smoke(), applications=("BFS", "BP")),
            algorithms=("MOEA/D", "NSGA-II"),
            max_evaluations=40,
        )
        run_campaign(implicit, tmp_path / "implicit")
        assert_bit_identical(arrays_of(tmp_path / "explicit"), arrays_of(tmp_path / "implicit"))
        explicit_manifest = json.loads((tmp_path / "explicit" / "manifest.json").read_text())
        implicit_manifest = json.loads((tmp_path / "implicit" / "manifest.json").read_text())
        assert explicit_manifest["cells"] == implicit_manifest["cells"]

    def test_old_manifest_without_scenario_field_resumes(self, tmp_path):
        """A pre-scenario directory (no "scenario" keys anywhere) is resumable."""
        campaign = smoke_campaign()
        summary = run_campaign(campaign, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert all("scenario" not in entry for entry in manifest["cells"])
        resumed = run_campaign(campaign, tmp_path)
        assert not resumed.executed and len(resumed.skipped) == len(summary.cells)


class TestFaultAxisEquivalence:
    @pytest.fixture(scope="class")
    def faulted(self):
        return smoke_campaign(("identity", FAULT_KEY))

    def test_pool_matches_inline_bitwise(self, faulted, tmp_path):
        run_campaign(faulted, tmp_path / "inline")
        run_campaign(replace(faulted, max_workers=2), tmp_path / "pool")
        assert_bit_identical(arrays_of(tmp_path / "inline"), arrays_of(tmp_path / "pool"))

    def test_kill_resume_matches_uninterrupted(self, faulted, tmp_path):
        run_campaign(faulted, tmp_path / "straight")
        summary = run_campaign(faulted, tmp_path / "killed")
        # Kill one identity and one faulted cell, then resume.
        victims = [summary.cells[0], next(c for c in summary.cells if c.scenario != "identity")]
        for victim in victims:
            summary.shard_path(victim.key).unlink()
        resumed = run_campaign(faulted, tmp_path / "killed")
        assert sorted(resumed.executed) == sorted(v.key for v in victims)
        assert_bit_identical(arrays_of(tmp_path / "straight"), arrays_of(tmp_path / "killed"))

    def test_compaction_preserves_results_bitwise(self, faulted, tmp_path):
        run_campaign(faulted, tmp_path)
        before = arrays_of(tmp_path)
        compact_campaign(tmp_path)
        assert not list(tmp_path.glob("cell_*.json"))
        assert_bit_identical(before, arrays_of(tmp_path))
        # And the compacted directory still resumes by skipping everything.
        resumed = run_campaign(faulted, tmp_path)
        assert not resumed.executed and len(resumed.skipped) == 8

    def test_faulted_cells_record_scenario_in_manifest_and_shards(self, faulted, tmp_path):
        run_campaign(faulted, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        by_scenario = {"identity": 0, FAULT_KEY: 0}
        for entry in manifest["cells"]:
            by_scenario[entry.get("scenario", "identity")] += 1
        assert by_scenario == {"identity": 4, FAULT_KEY: 4}
        for cell, _ in load_campaign_results(tmp_path):
            assert cell.scenario in ("identity", FAULT_KEY)

    def test_faulted_results_differ_from_identity(self, faulted, tmp_path):
        """The axis must actually change the landscape, not just the labels."""
        run_campaign(faulted, tmp_path)
        groups = {}
        for cell, result in load_campaign_results(tmp_path):
            groups.setdefault((cell.algorithm, cell.application), {})[cell.scenario] = result
        for by_scenario in groups.values():
            identity = by_scenario["identity"].objectives
            fault = by_scenario[FAULT_KEY].objectives
            assert identity.shape != fault.shape or not np.allclose(identity, fault)
