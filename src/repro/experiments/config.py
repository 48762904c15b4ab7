"""Experiment configuration for the reproduction harness.

The paper's evaluation runs every algorithm for up to 48 hours on a 64-tile
platform with 1000 generations.  The reduced defaults here regenerate every
table and figure on a laptop in minutes while exercising exactly the same
code paths; the full-scale settings remain available via
:meth:`ExperimentConfig.paper_scale`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable

from repro.core.config import MOELAConfig
from repro.noc.platform import PlatformConfig
from repro.scenarios.registry import canonical_scenario_key
from repro.utils.validation import require_count, require_flag
from repro.workloads.rodinia import RODINIA_APPLICATIONS


def _strings(value: Any, name: str) -> tuple[str, ...]:
    """A list or tuple of strings; a bare string is not one."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(item, str) for item in value):
        raise TypeError(f"{name} must be a list of strings, got {value!r}")
    return tuple(value)


def _applications(value: Any, name: str) -> tuple[str, ...]:
    applications = _strings(value, name)
    unknown = [a for a in applications if a.upper() not in RODINIA_APPLICATIONS]
    if unknown:
        raise ValueError(f"unknown {name} {unknown}; known: {RODINIA_APPLICATIONS}")
    return applications


def _objective_counts(value: Any, name: str) -> tuple[int, ...]:
    """A list of objective counts, each drawn from {3, 4, 5}."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{name} must be a list of integers, got {value!r}")
    counts = tuple(require_count(m, name, 3) for m in value)
    if not counts or max(counts) > 5:
        raise ValueError(f"{name} must be drawn from {{3, 4, 5}}, got {value!r}")
    return counts


def _scenario_models(value: Any, name: str) -> tuple[str, ...]:
    canonical = tuple(canonical_scenario_key(s) for s in _strings(value, name))
    if not canonical:
        raise ValueError(f"{name} must list at least one scenario model (use 'identity')")
    if len(set(canonical)) != len(canonical):
        raise ValueError(f"{name} has duplicate scenario models: {list(value)}")
    return canonical


#: The check of each :class:`ExperimentConfig` field: ``check(value, name)``
#: returns the value to store (see :mod:`repro.utils.validation`).  The
#: ``Study`` keys that set these fields run the same checks under their names.
EXPERIMENT_CHECKS: dict[str, Callable[[Any, str], Any]] = {
    "applications": _applications,
    "objective_counts": _objective_counts,
    "population_size": partial(require_count, minimum=4),
    "max_evaluations": partial(require_count, minimum=10),
    "searches_per_iteration": partial(require_count, minimum=1),
    "local_search_steps": partial(require_count, minimum=1),
    "neighbors_per_step": partial(require_count, minimum=1),
    "scenario_models": _scenario_models,
    "seed": partial(require_count, minimum=0),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings shared by the table/figure reproduction runs.

    Parameters
    ----------
    platform:
        Platform configuration all designs are generated for.
    applications:
        Application names evaluated (Tables I/II use six Rodinia apps).
    objective_counts:
        The scenarios to evaluate (3, 4 and/or 5 objectives).
    population_size:
        Population / archive size for every algorithm.
    max_evaluations:
        Evaluation budget per run (the deterministic stand-in for ``T_stop``).
    moela:
        MOELA hyper-parameters.
    searches_per_iteration, local_search_steps, neighbors_per_step:
        Budgets for the MOOS baseline's local searches.
    scenario_models:
        Fault/scenario models evaluated as a grid axis (canonical keys, see
        :mod:`repro.scenarios`); the default single ``"identity"`` axis is
        the nominal, pre-scenario behaviour.  Keys are validated and
        canonicalised at construction, so a typo fails here rather than
        mid-campaign.
    seed:
        Base seed; per-(algorithm, app, scenario) seeds are derived from it.
    """

    platform: PlatformConfig = field(default_factory=PlatformConfig.small_3x3x3)
    applications: tuple[str, ...] = ("BFS", "BP", "GAU", "HOT", "PF", "SRAD")
    objective_counts: tuple[int, ...] = (3, 4, 5)
    population_size: int = 16
    max_evaluations: int = 1_200
    moela: MOELAConfig = field(default_factory=MOELAConfig.reduced)
    searches_per_iteration: int = 3
    local_search_steps: int = 6
    neighbors_per_step: int = 3
    scenario_models: tuple[str, ...] = ("identity",)
    seed: int = 7

    def __post_init__(self) -> None:
        for name, check in EXPERIMENT_CHECKS.items():
            object.__setattr__(self, name, check(getattr(self, name), name))

    @classmethod
    def smoke(cls) -> "ExperimentConfig":
        """Very small settings for tests (single app, tiny platform)."""
        return cls(
            platform=PlatformConfig.tiny_2x2x2(),
            applications=("BFS",),
            objective_counts=(3,),
            population_size=6,
            max_evaluations=120,
            moela=MOELAConfig.smoke(),
            searches_per_iteration=2,
            local_search_steps=3,
            neighbors_per_step=2,
            seed=3,
        )

    @classmethod
    def reduced(cls) -> "ExperimentConfig":
        """Default laptop-scale settings used by the benchmark harness."""
        return cls()

    @classmethod
    def paper_scale(cls) -> "ExperimentConfig":
        """The paper's full-scale settings (hours to days of compute)."""
        return cls(
            platform=PlatformConfig.paper_4x4x4(),
            applications=("BFS", "BP", "GAU", "HOT", "PF", "SRAD"),
            objective_counts=(3, 4, 5),
            population_size=50,
            max_evaluations=2_000_000,
            moela=MOELAConfig.paper(),
            searches_per_iteration=5,
            local_search_steps=25,
            neighbors_per_step=4,
            seed=0,
        )


@dataclass(frozen=True)
class CampaignConfig:
    """Settings for one sharded (algorithm x application x scenario) campaign.

    A campaign runs every cell of the grid defined by ``algorithms`` and the
    experiment's ``applications`` / ``objective_counts``, each with its own
    derived seed, and streams every cell's result to one JSON shard next to a
    manifest (see :func:`repro.experiments.runner.run_campaign`).  Every
    cell, pooled or inline, appends its events to the durable
    ``events.jsonl`` next to the manifest, which the caller's subscribers
    tail.  Every cell owns its route cache (cells share no routing state,
    inline or pooled); its hit/miss/repair counters are recorded in its
    shard and summarised in the manifest.

    Parameters
    ----------
    experiment:
        The shared experiment settings (platform, applications, scenarios,
        per-run budget, algorithm hyper-parameters).
    algorithms:
        Algorithm names to run; the empty tuple means every registered
        algorithm (:data:`repro.experiments.runner.ALGORITHMS`).
    max_workers:
        Size of the process pool the grid cells are fanned out over; ``1``
        runs cells inline in submission order.
    resume:
        When True, cells whose shard already exists and parses are skipped —
        re-running a killed campaign only executes the missing cells.
    max_evaluations:
        Per-cell evaluation budget override; ``None`` uses the experiment's
        ``max_evaluations``.
    """

    experiment: ExperimentConfig = field(default_factory=ExperimentConfig.reduced)
    algorithms: tuple[str, ...] = ()
    max_workers: int = 1
    resume: bool = True
    max_evaluations: int | None = None

    def __post_init__(self) -> None:
        require_count(self.max_workers, "max_workers", 1)
        require_flag(self.resume, "resume")
        if self.max_evaluations is not None:
            require_count(self.max_evaluations, "max_evaluations", 1)

    @property
    def cell_budget(self) -> int:
        """Evaluation budget applied to every cell."""
        return self.max_evaluations if self.max_evaluations is not None else self.experiment.max_evaluations

    @classmethod
    def smoke(cls) -> "CampaignConfig":
        """Tiny 2-algorithm x 2-application campaign (4 cells, seconds to run).

        This is the grid ``repro campaign --smoke`` and the CI campaign smoke
        job execute end to end.
        """
        return cls(
            experiment=replace(ExperimentConfig.smoke(), applications=("BFS", "BP")),
            algorithms=("MOEA/D", "NSGA-II"),
            max_workers=1,
            max_evaluations=60,
        )
