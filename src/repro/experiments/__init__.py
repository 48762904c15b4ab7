"""Experiment harness reproducing the paper's evaluation (Tables I-II, Fig. 3)."""

from repro.experiments.compaction import CompactionSummary, compact_campaign
from repro.experiments.config import CampaignConfig, ExperimentConfig
from repro.experiments.metrics import (
    common_reference_point,
    edp_of_best_design,
    phv_gain,
    select_design_by_thermal_threshold,
    speedup_factor,
)
from repro.experiments.runner import (
    CampaignCell,
    CampaignExecution,
    CampaignSummary,
    campaign_cells,
    campaign_status,
    load_campaign_results,
    load_manifest,
    make_problem,
    run_algorithm,
    run_campaign,
    submit_campaign,
)
from repro.experiments.tables import (
    build_figure3,
    format_figure3,
    format_table,
)

__all__ = [
    "CampaignCell",
    "CampaignConfig",
    "CampaignExecution",
    "CampaignSummary",
    "CompactionSummary",
    "ExperimentConfig",
    "compact_campaign",
    "submit_campaign",
    "build_figure3",
    "campaign_cells",
    "campaign_status",
    "load_campaign_results",
    "load_manifest",
    "run_campaign",
    "common_reference_point",
    "edp_of_best_design",
    "format_figure3",
    "format_table",
    "make_problem",
    "phv_gain",
    "run_algorithm",
    "select_design_by_thermal_threshold",
    "speedup_factor",
]
