"""Tests for the ``python -m repro`` command-line front door."""

import json

import pytest

from repro.cli import _study_from_args, build_parser, main


class TestList:
    def test_lists_registered_optimizers(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("MOELA", "MOEA/D", "MOOS", "MOO-STAGE", "NSGA-II"):
            assert name in out

    def test_verbose_lists_hyperparameters(self, capsys):
        assert main(["list", "-v"]) == 0
        assert "population_size" in capsys.readouterr().out

    def test_verbose_prints_full_schema_per_optimizer(self, capsys):
        assert main(["list", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "hyperparameters:" in out
        assert "aliases:" in out  # MOEA/D registers alias spellings
        assert "docs/configuration.md" in out  # pointer to the schema docs


class TestHelpEpilogs:
    @pytest.mark.parametrize("command", [[], ["run"], ["campaign"], ["tables"],
                                         ["compact"], ["robustness"], ["list"]])
    def test_help_points_at_the_docs(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--help"])
        assert excinfo.value.code == 0
        assert "docs/cli.md" in capsys.readouterr().out


class TestRun:
    def test_single_run_via_flags(self, capsys):
        code = main([
            "run", "--preset", "smoke", "--platform", "tiny", "--apps", "BFS",
            "--objectives", "3", "--algorithms", "nsga2", "--evaluations", "30",
            "--no-progress",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "NSGA-II" in out and "routing cache" in out

    def test_comparison_renders_tables_and_progress(self, capsys):
        code = main([
            "run", "--preset", "smoke", "--platform", "tiny", "--apps", "BFS",
            "--objectives", "3", "--algorithms", "moead", "nsga2",
            "--evaluations", "30",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out
        assert "run started" in out  # streamed progress events

    def test_config_file_drives_the_run(self, tmp_path, capsys):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "preset": "smoke",
            "platform": "tiny",
            "applications": ["BFS"],
            "objectives": [3],
            "algorithms": ["NSGA-II"],
            "evaluations": 30,
        }))
        assert main(["run", "--config", str(config), "--no-progress"]) == 0
        assert "NSGA-II" in capsys.readouterr().out

    def test_flags_override_the_config_file_key_by_key(self, tmp_path):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"preset": "smoke", "seed": 4, "evaluations": 30}))
        args = build_parser().parse_args([
            "run", "--config", str(config), "--platform", "tiny", "--apps", "BFS",
            "--objectives", "3", "--algorithms", "nsga2", "--evaluations", "40",
            "--population", "8", "--scenarios", "identity",
        ])
        assert _study_from_args(args).to_dict() == {
            "preset": "smoke",
            "platform": "tiny-2x2x2",
            "applications": ["BFS"],
            "objectives": [3],
            "algorithms": ["NSGA-II"],
            "population_size": 8,
            "evaluations": 40,
            "scenarios": ["identity"],
            "seed": 4,
        }
        assert _study_from_args(build_parser().parse_args(["run"])).to_dict() == {"preset": "reduced"}

    def test_retired_routing_cache_flag_is_unrecognised(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--preset", "smoke", "--no-routing-cache", "--no-progress"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --no-routing-cache" in capsys.readouterr().err

    def test_unknown_algorithm_fails_cleanly(self, capsys):
        code = main([
            "run", "--preset", "smoke", "--algorithms", "WARP-DRIVE",
            "--no-progress",
        ])
        assert code == 2
        assert "available: MOELA" in capsys.readouterr().err

    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"preset": "smoke", "colour": "blue"}))
        assert main(["run", "--config", str(config), "--no-progress"]) == 2
        assert "unknown study keys" in capsys.readouterr().err

    def test_mistyped_config_value_fails_cleanly(self, tmp_path, capsys):
        """A TypeError from a setting's check is reported like a ValueError."""
        config = tmp_path / "study.toml"
        config.write_text('preset = "smoke"\nseed = 2.5\n')
        assert main(["run", "--config", str(config), "--no-progress"]) == 2
        assert capsys.readouterr().err == "error: seed must be an integer, got 2.5\n"


@pytest.fixture()
def campaign_dir(tmp_path):
    return tmp_path / "campaign"


class TestCampaignAndTables:
    def _campaign(self, campaign_dir, *extra):
        return main([
            "campaign", "--preset", "smoke", "--apps", "BFS",
            "--algorithms", "MOEA/D", "NSGA-II", "--evaluations", "30",
            "--output-dir", str(campaign_dir), "--no-progress", *extra,
        ])

    def test_campaign_runs_resumes_and_renders_tables(self, campaign_dir, capsys):
        assert self._campaign(campaign_dir) == 0
        out = capsys.readouterr().out
        assert "executed 2 cells, skipped 0" in out
        assert (campaign_dir / "manifest.json").exists()

        assert self._campaign(campaign_dir, "--tables") == 0
        out = capsys.readouterr().out
        assert "executed 0 cells, skipped 2" in out
        assert "Table I" in out

        assert main(["tables", "--output-dir", str(campaign_dir)]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out

    def test_campaign_streams_shard_events(self, campaign_dir, capsys):
        # Progress streaming is on by default (no --no-progress here).
        code = main([
            "campaign", "--preset", "smoke", "--apps", "BP",
            "--algorithms", "NSGA-II", "--evaluations", "30",
            "--output-dir", str(campaign_dir / "events"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign started" in out and "shard finished" in out

    def test_campaign_settings_from_config_file_are_respected(self, tmp_path, capsys):
        """max_workers / output_dir from the config's campaign section apply
        when the matching flags are not passed."""
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "preset": "smoke",
            "applications": ["BFS"],
            "algorithms": ["NSGA-II"],
            "evaluations": 30,
            "campaign": {"output_dir": str(tmp_path / "out"), "max_workers": 2},
        }))
        assert main(["campaign", "--config", str(config), "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "workers=2" in out
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_campaign_config_resume_false_survives_flag_merge(self, tmp_path, capsys):
        """A config file's `campaign.resume = false` must survive the CLI's
        settings plumbing when another campaign flag (--workers) is passed:
        the second run re-executes the completed cell instead of skipping it."""
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "preset": "smoke",
            "applications": ["BFS"],
            "algorithms": ["NSGA-II"],
            "evaluations": 30,
            "campaign": {"output_dir": str(tmp_path / "out"), "resume": False},
        }))
        argv = ["campaign", "--config", str(config), "--workers", "1", "--no-progress"]
        assert main(argv) == 0
        assert "executed 1 cells, skipped 0" in capsys.readouterr().out
        assert main(argv) == 0
        assert "executed 1 cells, skipped 0" in capsys.readouterr().out

    def test_campaign_follow_streams_worker_events(self, campaign_dir, capsys):
        """--follow on a pooled campaign renders per-iteration events that
        crossed the process boundary through the event log."""
        code = main([
            "campaign", "--preset", "smoke", "--apps", "BFS", "BP",
            "--algorithms", "MOEA/D", "NSGA-II", "--evaluations", "30",
            "--workers", "2", "--output-dir", str(campaign_dir), "--follow",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "following" in out and "events.jsonl" in out
        assert "shard started" in out and "shard finished" in out
        assert "iteration" in out  # pooled per-iteration events streamed live
        assert "executed 4 cells" in out
        assert (campaign_dir / "events.jsonl").exists()

    def test_compact_subcommand_rolls_and_tables_read_the_rollup(self, campaign_dir, capsys):
        assert self._campaign(campaign_dir) == 0
        capsys.readouterr()
        assert main(["tables", "--output-dir", str(campaign_dir)]) == 0
        before = capsys.readouterr().out

        assert main(["compact", "--output-dir", str(campaign_dir)]) == 0
        out = capsys.readouterr().out
        assert "rollup" in out and "2 cells indexed" in out
        assert not list(campaign_dir.glob("cell_*.json"))

        assert main(["tables", "--output-dir", str(campaign_dir)]) == 0
        assert capsys.readouterr().out == before  # byte-for-byte from the rollup

    def test_compact_with_nothing_completed_fails_cleanly(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text(json.dumps({
            "format": "repro-campaign/1", "cells": [],
        }))
        assert main(["compact", "--output-dir", str(tmp_path)]) == 1
        assert "no completed cells" in capsys.readouterr().err

    def test_campaign_config_with_removed_event_log_key_is_rejected(self, tmp_path, capsys):
        """Campaigns always write the durable event log, so a config file
        that still sets `campaign.event_log` fails with the unknown-key error
        instead of being silently ignored."""
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "preset": "smoke",
            "applications": ["BFS"],
            "algorithms": ["NSGA-II"],
            "evaluations": 30,
            "campaign": {"output_dir": str(tmp_path / "out"), "event_log": False},
        }))
        assert main(["campaign", "--config", str(config), "--no-progress"]) == 2
        assert "unknown campaign keys ['event_log']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_campaign_config_with_mistyped_flag_fails_cleanly(self, tmp_path, capsys):
        config = tmp_path / "study.toml"
        config.write_text(
            'preset = "smoke"\n[campaign]\n'
            f'output_dir = "{(tmp_path / "out").as_posix()}"\nresume = "no"\n'
        )
        assert main(["campaign", "--config", str(config), "--no-progress"]) == 2
        assert capsys.readouterr().err == "error: resume must be true or false, got 'no'\n"
        assert not (tmp_path / "out").exists()

    def test_campaign_without_output_dir_fails(self, capsys):
        assert main(["campaign", "--preset", "smoke", "--no-progress"]) == 2
        assert "--output-dir" in capsys.readouterr().err

    def test_tables_on_empty_directory_fails(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text(json.dumps({
            "format": "repro-campaign/1", "cells": [],
        }))
        assert main(["tables", "--output-dir", str(tmp_path)]) == 1
        assert "no completed shards" in capsys.readouterr().err


class TestScenarioFlagsAndRobustness:
    FAULT = "link_failure(k=1,mode=remove)"
    CANONICAL = "link_failure(k=1,mode=remove,derate_factor=0.5)"

    def _faulted_campaign(self, campaign_dir):
        return main([
            "campaign", "--preset", "smoke", "--apps", "BFS",
            "--algorithms", "MOEA/D", "NSGA-II", "--evaluations", "30",
            "--scenarios", "identity", self.FAULT,
            "--output-dir", str(campaign_dir), "--no-progress",
        ])

    def test_campaign_scenarios_flag_widens_the_grid(self, campaign_dir, capsys):
        assert self._faulted_campaign(campaign_dir) == 0
        out = capsys.readouterr().out
        assert "2 fault scenarios" in out
        assert "executed 4 cells" in out
        manifest = json.loads((campaign_dir / "manifest.json").read_text())
        faulted = [c for c in manifest["cells"] if "scenario" in c]
        assert len(faulted) == 2
        assert {c["scenario"] for c in faulted} == {self.CANONICAL}

    def test_robustness_renders_map_and_certificate(self, campaign_dir, capsys):
        assert self._faulted_campaign(campaign_dir) == 0
        capsys.readouterr()
        assert main(["robustness", "--output-dir", str(campaign_dir)]) == 0
        out = capsys.readouterr().out
        assert "Sensitivity map" in out
        assert "Robustness certificate" in out
        assert "Worst case:" in out
        assert self.CANONICAL in out

    def test_certificate_only_skips_the_map(self, campaign_dir, capsys):
        assert self._faulted_campaign(campaign_dir) == 0
        capsys.readouterr()
        assert main([
            "robustness", "--output-dir", str(campaign_dir),
            "--certificate-only", "--quantiles", "0.5", "0.75",
        ]) == 0
        out = capsys.readouterr().out
        assert "Sensitivity map" not in out
        assert "q75" in out

    def test_run_with_fault_scenarios_fails_cleanly(self, capsys):
        code = main([
            "run", "--preset", "smoke", "--apps", "BFS", "--algorithms", "nsga2",
            "--evaluations", "30", "--scenarios", "identity", self.FAULT,
            "--no-progress",
        ])
        assert code == 2
        assert "campaign mode" in capsys.readouterr().err

    def test_unknown_scenario_fails_cleanly(self, capsys):
        code = main([
            "campaign", "--preset", "smoke", "--scenarios", "meteor_strike",
            "--output-dir", "unused", "--no-progress",
        ])
        assert code == 2
        assert "unknown scenario model" in capsys.readouterr().err

    def test_robustness_without_identity_cells_fails_cleanly(self, campaign_dir, capsys):
        assert main([
            "campaign", "--preset", "smoke", "--apps", "BFS",
            "--algorithms", "NSGA-II", "--evaluations", "30",
            "--scenarios", self.FAULT,
            "--output-dir", str(campaign_dir), "--no-progress",
        ]) == 0
        capsys.readouterr()
        assert main(["robustness", "--output-dir", str(campaign_dir)]) == 2
        assert "no completed 'identity' cells" in capsys.readouterr().err


class TestExplain:
    @pytest.fixture()
    def designs(self, tiny_config, tmp_path):
        """A feasible and an infeasible tiny design, saved as JSON files."""
        import numpy as np

        from repro.noc.constraints import random_design
        from repro.noc.design import NocDesign
        from repro.utils.serialization import save_design

        design = random_design(tiny_config, np.random.default_rng(0))
        broken = NocDesign(placement=design.placement, links=design.links[:-2])
        return (
            save_design(design, tmp_path / "ok.json"),
            save_design(broken, tmp_path / "broken.json"),
        )

    def test_feasible_design_exits_zero(self, designs, capsys):
        ok, _ = designs
        assert main(["explain", str(ok)]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_infeasible_design_renders_violations_and_exits_one(self, designs, capsys):
        _, broken = designs
        assert main(["explain", str(broken)]) == 1
        out = capsys.readouterr().out
        assert "violation(s)" in out and "-budget]" in out

    def test_platform_is_inferred_from_tile_count(self, designs, capsys):
        """8 tiles can only be tiny-2x2x2; --platform is optional."""
        _, broken = designs
        assert main(["explain", str(broken)]) == main(
            ["explain", str(broken), "--platform", "tiny"]
        )
        capsys.readouterr()

    def test_json_rendering_round_trips(self, designs, capsys):
        _, broken = designs
        assert main(["explain", str(broken), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["feasible"] is False
        assert payload["report"]["violations"]

    def test_repair_prints_transcript_and_exits_zero(self, designs, capsys):
        _, broken = designs
        assert main(["explain", str(broken), "--repair", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "repair walk (seed 3)" in out and "repaired" in out

    def test_repair_json_carries_the_plan(self, designs, capsys):
        _, broken = designs
        assert main(["explain", str(broken), "--repair", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["repair"]["feasible"] is True
        assert payload["repair"]["steps"]

    def test_unknown_platform_fails_cleanly(self, designs, capsys):
        ok, _ = designs
        assert main(["explain", str(ok), "--platform", "mega"]) == 2
        assert "unknown platform" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path / "absent.json")]) == 2
        assert "error" in capsys.readouterr().err
