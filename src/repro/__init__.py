"""MOELA reproduction: multi-objective evolutionary/learning DSE for 3D heterogeneous manycore platforms.

This package reproduces the system described in "MOELA: A Multi-Objective
Evolutionary/Learning Design Space Exploration Framework for 3D Heterogeneous
Manycore Platforms" (DATE 2023).  It contains:

* ``repro.noc`` — the 3D NoC platform model (tiles, links, designs,
  constraints, routing, mesh references, move operators).
* ``repro.workloads`` — synthetic Rodinia-like traffic and power generators
  that stand in for the paper's gem5-GPU/McPAT/GPUWattch toolchain.
* ``repro.objectives`` — the five cost models of Section III (traffic mean,
  traffic variance, CPU-LLC latency, NoC energy, thermal).
* ``repro.simulation`` — a queueing-theoretic NoC performance/energy simulator
  used to compute EDP for final designs (Fig. 3 substitute).
* ``repro.ml`` — regression trees / random forests / scalers used by the
  learned evaluation functions (scikit-learn substitute).
* ``repro.moo`` — multi-objective optimisation substrate (dominance,
  hypervolume, weight vectors, scalarisation) and baseline optimisers
  (MOEA/D, NSGA-II, MOOS, MOO-STAGE).
* ``repro.core`` — the MOELA framework itself (Algorithms 1 and 2).
* ``repro.experiments`` — the harness that regenerates Table I, Table II and
  Fig. 3 of the paper.
* ``repro.study`` — the unified front door: the :class:`Study` façade, the
  optimizer registry every dispatch path resolves names through, and the
  streaming :class:`StudyEvent` progress protocol (``python -m repro`` is the
  CLI twin).

The workhorse types are re-exported here so user code never has to import
from deep modules: build a :class:`Study` (or an :class:`ExperimentConfig` /
:class:`CampaignConfig`), run it, and consume :class:`OptimizationResult`\\ s.
"""

from repro.core.config import MOELAConfig
from repro.core.moela import MOELA
from repro.core.problem import NocDesignProblem
from repro.experiments.compaction import CompactionSummary, compact_campaign
from repro.experiments.config import CampaignConfig, ExperimentConfig
from repro.experiments.runner import (
    CampaignExecution,
    run_algorithm,
    run_campaign,
    submit_campaign,
)
from repro.moo.result import OptimizationResult
from repro.moo.termination import Budget
from repro.noc.constraints import InfeasibleDesignError, ViolationReport
from repro.noc.platform import PlatformConfig
from repro.noc.repair import RepairBudget, RepairPlan, repair_design
from repro.objectives.evaluator import ObjectiveEvaluator
from repro.study.events import EventCallback, StudyEvent
from repro.study.registry import (
    OptimizerRegistry,
    OptimizerSpec,
    default_registry,
    register_optimizer,
)
from repro.study.study import Study, StudyResult
from repro.workloads.registry import WorkloadRegistry, get_workload

__all__ = [
    "Budget",
    "CampaignConfig",
    "CampaignExecution",
    "CompactionSummary",
    "EventCallback",
    "ExperimentConfig",
    "InfeasibleDesignError",
    "MOELA",
    "MOELAConfig",
    "NocDesignProblem",
    "ObjectiveEvaluator",
    "OptimizationResult",
    "OptimizerRegistry",
    "OptimizerSpec",
    "PlatformConfig",
    "RepairBudget",
    "RepairPlan",
    "Study",
    "StudyEvent",
    "StudyResult",
    "ViolationReport",
    "WorkloadRegistry",
    "compact_campaign",
    "default_registry",
    "get_workload",
    "register_optimizer",
    "repair_design",
    "run_algorithm",
    "run_campaign",
    "submit_campaign",
]

__version__ = "1.1.0"
