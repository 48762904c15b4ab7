"""The :class:`Study` façade: one front door for runs, comparisons and campaigns.

A study is built fluently::

    result = (
        Study(platform="small-3x3x3", objectives=5)
        .algorithm("moela", population_size=16)
        .algorithm("MOOS")
        .apps("BFS", "HOT")
        .evaluations(1_200)
        .run()
    )

or declaratively from a dict / TOML / JSON file (:meth:`Study.from_dict`,
:meth:`Study.from_file`), with full validation and a round-tripping
:meth:`Study.to_dict`.  ``run()`` executes every (algorithm, application,
scenario) combination through the registry-backed
:func:`repro.experiments.runner.run_algorithm` path — bit-identical to
calling it directly — or, when :meth:`Study.campaign` configured an output
directory, through the sharded campaign engine.  Either way the outcome is
one unified :class:`StudyResult` carrying every
:class:`~repro.moo.result.OptimizationResult`, the routing-cache counters and
the paper's comparison-table builders.

Progress streams through the :class:`~repro.study.events.StudyEvent` protocol:
subscribe with :meth:`Study.on_event` and every optimiser iteration, campaign
shard and study boundary emits a structured event.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from operator import index
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.experiments.config import CampaignConfig, ExperimentConfig
from repro.experiments.runner import (
    CampaignExecution,
    CampaignSummary,
    make_problem,
    run_algorithm,
    run_campaign,
    submit_campaign,
)
from repro.experiments.tables import (
    BASELINES,
    RunMap,
    TableResult,
    _phv_gain_value,
    _speedup_value,
    aggregate_campaign,
    build_comparison_table,
    format_table,
)
from repro.moo.result import OptimizationResult
from repro.experiments.robustness import (
    RobustnessCertificate,
    SensitivityMap,
    robustness_certificate,
    sensitivity_map,
)
from repro.noc.platform import PlatformConfig
from repro.scenarios.registry import canonical_scenario_key
from repro.study.events import EventCallback, StudyEvent
from repro.study.registry import default_registry
from repro.utils.serialization import platform_to_dict

#: Named platform factories accepted by ``Study(platform=...)`` and the
#: declarative ``"platform"`` key (hyphen/underscore/case-insensitive, with
#: the short forms ``tiny`` / ``small`` / ``paper`` / ``flat`` / ``big``).
PLATFORM_FACTORIES: dict[str, Any] = {
    "tiny": PlatformConfig.tiny_2x2x2,
    "tiny-2x2x2": PlatformConfig.tiny_2x2x2,
    "small": PlatformConfig.small_3x3x3,
    "small-3x3x3": PlatformConfig.small_3x3x3,
    "paper": PlatformConfig.paper_4x4x4,
    "paper-4x4x4": PlatformConfig.paper_4x4x4,
    "flat": PlatformConfig.flat_4x4x1,
    "flat-4x4x1": PlatformConfig.flat_4x4x1,
    "big": PlatformConfig.big_8x8x4,
    "big-8x8x4": PlatformConfig.big_8x8x4,
}

#: Base experiment presets the study starts from before applying overrides.
PRESETS: dict[str, Any] = {
    "smoke": ExperimentConfig.smoke,
    "reduced": ExperimentConfig.reduced,
    "paper": ExperimentConfig.paper_scale,
}

#: Keys accepted by :meth:`Study.from_dict` (everything else raises).
_STUDY_KEYS: tuple[str, ...] = (
    "preset",
    "platform",
    "applications",
    "objectives",
    "algorithms",
    "population_size",
    "evaluations",
    "scenarios",
    "seed",
    "routing_cache",
    "campaign",
)

_CAMPAIGN_KEYS: tuple[str, ...] = (
    "output_dir",
    "max_workers",
    "resume",
)


def _flag(key: str, value: Any) -> bool:
    """A boolean study setting; no truthiness coercion."""
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def _integer(key: str, value: Any) -> int:
    """An integer study setting; floats and booleans raise."""
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise ValueError(f"{key} must be an integer, got {value!r}")


def resolve_platform(platform: "str | PlatformConfig") -> PlatformConfig:
    """Resolve a platform name (or pass a config through)."""
    if isinstance(platform, PlatformConfig):
        return platform
    key = str(platform).strip().lower().replace("_", "-")
    factory = PLATFORM_FACTORIES.get(key)
    if factory is None:
        known = ", ".join(sorted(set(PLATFORM_FACTORIES)))
        raise ValueError(f"unknown platform {platform!r}; available: {known}")
    return factory()


def _normalize_objectives(objectives: "int | list[int] | tuple[int, ...]") -> tuple[int, ...]:
    if isinstance(objectives, (list, tuple)):
        return tuple(_integer("objectives", m) for m in objectives)
    return (_integer("objectives", objectives),)


@dataclass(frozen=True)
class _AlgorithmEntry:
    """One algorithm of the study: canonical name plus validated overrides."""

    name: str
    options: Mapping[str, Any] = field(default_factory=dict)

    def to_config(self) -> "str | dict[str, Any]":
        if not self.options:
            return self.name
        return {"name": self.name, "options": dict(self.options)}


class Study:
    """Declaratively configured bundle of optimisation runs.

    Parameters mirror the declarative schema; every one is optional and can
    also be set fluently afterwards (each fluent method returns ``self``).

    Parameters
    ----------
    platform:
        Platform name (``"tiny"``/``"small"``/``"paper"`` or a full factory
        name) or a :class:`~repro.noc.platform.PlatformConfig`.
    objectives:
        Objective scenario(s): an int or a sequence drawn from {3, 4, 5}.
    apps:
        Application names (defaults to the preset's applications).
    preset:
        Base :class:`~repro.experiments.config.ExperimentConfig` the overrides
        apply to: ``"smoke"``, ``"reduced"`` (default) or ``"paper"``.
    population_size, evaluations, seed:
        Overrides for the preset's population, per-run evaluation budget and
        base seed.
    scenarios:
        Fault/scenario models run as a campaign grid axis (canonical keys,
        e.g. ``"link_failure(k=1,mode=remove)"``; see :mod:`repro.scenarios`).
        Validated at build time; campaign mode only — the default is the
        single nominal ``identity`` axis.
    routing_cache:
        ``False`` disables the cross-design routing engine (escape hatch;
        results are bit-identical either way).
    """

    def __init__(
        self,
        platform: "str | PlatformConfig | None" = None,
        objectives: "int | list[int] | tuple[int, ...] | None" = None,
        apps: "tuple[str, ...] | list[str] | None" = None,
        preset: str = "reduced",
        population_size: "int | None" = None,
        evaluations: "int | None" = None,
        seed: "int | None" = None,
        scenarios: "tuple[str, ...] | list[str] | None" = None,
        routing_cache: bool = True,
    ):
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}")
        self._preset = preset
        self._platform = resolve_platform(platform) if platform is not None else None
        self._objectives = _normalize_objectives(objectives) if objectives is not None else None
        self._apps = tuple(str(a).upper() for a in apps) if apps is not None else None
        self._population_size = (
            None if population_size is None else _integer("population_size", population_size)
        )
        self._evaluations = None if evaluations is None else _integer("evaluations", evaluations)
        self._seed = None if seed is None else _integer("seed", seed)
        self._scenarios = self._normalize_scenarios(scenarios)
        self._routing_cache = _flag("routing_cache", routing_cache)
        self._algorithms: list[_AlgorithmEntry] = []
        self._campaign: "dict[str, Any] | None" = None
        self._on_event: EventCallback | None = None

    # ------------------------------------------------------------------ #
    # Fluent builder
    # ------------------------------------------------------------------ #
    def algorithm(self, name: str, **options: Any) -> "Study":
        """Add one algorithm (any registered spelling) with overrides.

        The name is canonicalised and the overrides validated against the
        optimiser's declared hyperparameter schema immediately, so a typo
        fails at build time, not hours into a campaign.
        """
        spec = default_registry().spec(name)
        spec.validate_options(options)
        if "population_size" in options:
            _integer("population_size", options["population_size"])
        if any(entry.name == spec.name for entry in self._algorithms):
            raise ValueError(f"algorithm {spec.name!r} is already part of the study")
        self._algorithms.append(_AlgorithmEntry(name=spec.name, options=dict(options)))
        return self

    def algorithms(self, *names: str) -> "Study":
        """Add several algorithms without overrides."""
        for name in names:
            self.algorithm(name)
        return self

    def clear_algorithms(self) -> "Study":
        """Drop every configured algorithm (e.g. before replacing the list)."""
        self._algorithms.clear()
        return self

    def apps(self, *applications: str) -> "Study":
        """Set the applications evaluated by every algorithm."""
        self._apps = tuple(str(a).upper() for a in applications)
        return self

    def objectives(self, *counts: int) -> "Study":
        """Set the objective scenarios (3, 4 and/or 5)."""
        self._objectives = _normalize_objectives(list(counts))
        return self

    def platform(self, platform: "str | PlatformConfig") -> "Study":
        """Set the platform by name or config."""
        self._platform = resolve_platform(platform)
        return self

    def preset(self, name: str) -> "Study":
        """Select the base experiment preset the overrides apply to."""
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
        self._preset = name
        return self

    def evaluations(self, budget: int) -> "Study":
        """Set the per-run evaluation budget (an integer; floats and strings raise)."""
        self._evaluations = _integer("evaluations", budget)
        return self

    def population_size(self, size: int) -> "Study":
        """Set the population / archive size for every algorithm (an integer)."""
        self._population_size = _integer("population_size", size)
        return self

    def seed(self, seed: int) -> "Study":
        """Set the base seed per-cell seeds are derived from (an integer)."""
        self._seed = _integer("seed", seed)
        return self

    def routing_cache(self, enabled: bool) -> "Study":
        """Toggle the cross-design routing cache (performance only; a bool)."""
        self._routing_cache = _flag("routing_cache", enabled)
        return self

    @staticmethod
    def _normalize_scenarios(
        scenarios: "tuple[str, ...] | list[str] | None",
    ) -> "tuple[str, ...] | None":
        """Canonicalise scenario keys eagerly so typos fail at build time."""
        if scenarios is None:
            return None
        return tuple(canonical_scenario_key(str(s)) for s in scenarios)

    def scenarios(self, *models: str) -> "Study":
        """Set the fault/scenario grid axis (canonical keys; campaign mode).

        Include ``"identity"`` alongside the fault models when robustness
        analyses should compare against the nominal baseline (they need it).
        """
        self._scenarios = self._normalize_scenarios(list(models))
        return self

    def on_event(self, callback: "EventCallback | None") -> "Study":
        """Subscribe a callback to the study's streaming progress events."""
        self._on_event = callback
        return self

    def campaign(
        self,
        output_dir: "str | Path",
        max_workers: int = 1,
        resume: bool = True,
    ) -> "Study":
        """Execute as a sharded, resumable campaign instead of inline runs.

        Every cell's events — pooled or inline — stream through the durable
        ``events.jsonl`` next to the manifest; it is also what
        :meth:`submit`'s non-blocking handle tails.  Every cell owns its
        route cache (see :class:`~repro.experiments.config.CampaignConfig`).
        ``resume`` must be a boolean and ``max_workers`` an integer; anything
        else raises ``ValueError`` instead of being coerced.
        """
        self._campaign = {
            "output_dir": str(output_dir),
            "max_workers": _integer("max_workers", max_workers),
            "resume": _flag("resume", resume),
        }
        return self

    def campaign_settings(self) -> "dict[str, Any] | None":
        """Copy of the configured campaign settings (None in inline mode)."""
        return dict(self._campaign) if self._campaign is not None else None

    # ------------------------------------------------------------------ #
    # Declarative construction and round-tripping
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Study":
        """Build a study from the declarative schema (see :meth:`to_dict`).

        Unknown keys — top-level, inside ``campaign``, or an unknown
        algorithm/hyperparameter — raise ``ValueError`` with the accepted
        names, so a typo in a config file fails loudly.
        """
        unknown = sorted(set(payload) - set(_STUDY_KEYS))
        if unknown:
            raise ValueError(
                f"unknown study keys {unknown}; accepted: {', '.join(_STUDY_KEYS)}"
            )
        platform = payload.get("platform")
        if isinstance(platform, Mapping):
            platform = PlatformConfig(**platform)
        study = cls(
            platform=platform,
            objectives=payload.get("objectives"),
            apps=payload.get("applications"),
            preset=str(payload.get("preset", "reduced")),
            population_size=payload.get("population_size"),
            evaluations=payload.get("evaluations"),
            seed=payload.get("seed"),
            scenarios=payload.get("scenarios"),
            routing_cache=payload.get("routing_cache", True),
        )
        for entry in payload.get("algorithms", ()):
            if isinstance(entry, str):
                study.algorithm(entry)
            elif isinstance(entry, Mapping):
                extra = sorted(set(entry) - {"name", "options"})
                if extra:
                    raise ValueError(
                        f"unknown algorithm-entry keys {extra}; accepted: name, options"
                    )
                study.algorithm(str(entry["name"]), **dict(entry.get("options", {})))
            else:
                raise ValueError(
                    f"algorithm entries must be names or {{name, options}} maps, got {entry!r}"
                )
        campaign = payload.get("campaign")
        if campaign is not None:
            extra = sorted(set(campaign) - set(_CAMPAIGN_KEYS))
            if extra:
                raise ValueError(
                    f"unknown campaign keys {extra}; accepted: {', '.join(_CAMPAIGN_KEYS)}"
                )
            if "output_dir" not in campaign:
                raise ValueError("campaign configuration requires an output_dir")
            study.campaign(**campaign)
        return study

    @classmethod
    def from_file(cls, path: "str | Path") -> "Study":
        """Load a study from a TOML or JSON file (selected by suffix)."""
        path = Path(path)
        if path.suffix.lower() == ".toml":
            try:
                import tomllib
            except ModuleNotFoundError as error:  # pragma: no cover - Python < 3.11
                raise RuntimeError(
                    "TOML study files need Python >= 3.11 (tomllib); use JSON instead"
                ) from error
            payload = tomllib.loads(path.read_text())
        elif path.suffix.lower() == ".json":
            payload = json.loads(path.read_text())
        else:
            raise ValueError(f"unsupported study file suffix {path.suffix!r}; use .toml or .json")
        if "study" in payload and isinstance(payload["study"], Mapping):
            payload = payload["study"]
        return cls.from_dict(payload)

    def to_dict(self) -> dict[str, Any]:
        """Declarative representation; ``Study.from_dict`` round-trips it.

        Only explicitly set fields are emitted, so the dict stays minimal and
        the round-tripped study resolves every default identically.
        """
        payload: dict[str, Any] = {"preset": self._preset}
        if self._platform is not None:
            # A named platform is matched by its factory name first (cheap,
            # deterministic), then confirmed by value — a custom config that
            # merely reuses a factory's name still serialises field-by-field.
            factory = PLATFORM_FACTORIES.get(self._platform.name)
            if factory is not None and factory() == self._platform:
                payload["platform"] = self._platform.name
            else:
                payload["platform"] = platform_to_dict(self._platform)
        if self._objectives is not None:
            payload["objectives"] = list(self._objectives)
        if self._apps is not None:
            payload["applications"] = list(self._apps)
        if self._algorithms:
            payload["algorithms"] = [entry.to_config() for entry in self._algorithms]
        if self._population_size is not None:
            payload["population_size"] = self._population_size
        if self._evaluations is not None:
            payload["evaluations"] = self._evaluations
        if self._seed is not None:
            payload["seed"] = self._seed
        if self._scenarios is not None:
            payload["scenarios"] = list(self._scenarios)
        if not self._routing_cache:
            payload["routing_cache"] = False
        if self._campaign is not None:
            campaign = dict(self._campaign)
            if campaign["resume"] is True:
                del campaign["resume"]
            if campaign["max_workers"] == 1:
                del campaign["max_workers"]
            payload["campaign"] = campaign
        return payload

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def algorithm_names(self) -> tuple[str, ...]:
        """Canonical names of the study's algorithms (every builtin if unset)."""
        if self._algorithms:
            return tuple(entry.name for entry in self._algorithms)
        return tuple(default_registry().names())

    def experiment(self) -> ExperimentConfig:
        """The :class:`ExperimentConfig` the study's runs execute under."""
        experiment = PRESETS[self._preset]()
        overrides: dict[str, Any] = {}
        if self._platform is not None:
            overrides["platform"] = self._platform
        if self._apps is not None:
            overrides["applications"] = self._apps
        if self._objectives is not None:
            overrides["objective_counts"] = self._objectives
        if self._population_size is not None:
            overrides["population_size"] = self._population_size
        if self._evaluations is not None:
            overrides["max_evaluations"] = self._evaluations
        if self._seed is not None:
            overrides["seed"] = self._seed
        if self._scenarios is not None:
            overrides["scenario_models"] = self._scenarios
        return replace(experiment, **overrides) if overrides else experiment

    def campaign_config(self) -> CampaignConfig:
        """The :class:`CampaignConfig` a campaign-mode study runs."""
        if self._campaign is None:
            raise ValueError("study has no campaign configuration; call .campaign(output_dir)")
        entries = self._algorithms or [
            _AlgorithmEntry(name) for name in default_registry().names()
        ]
        with_options = [entry.name for entry in entries if entry.options]
        if with_options:
            raise ValueError(
                f"campaign mode does not support per-algorithm hyperparameter overrides "
                f"(set on {with_options}); campaigns wire every cell from the shared "
                "experiment configuration"
            )
        return CampaignConfig(
            experiment=self.experiment(),
            algorithms=tuple(entry.name for entry in entries),
            max_workers=self._campaign["max_workers"],
            resume=self._campaign["resume"],
            routing_cache=self._routing_cache,
        )

    def _emit(self, kind: str, **payload: Any) -> None:
        if self._on_event is not None:
            self._on_event(StudyEvent(kind=kind, payload=payload))

    def run(self) -> "StudyResult":
        """Execute the study and return the unified result.

        Inline mode runs every (application, scenario, algorithm) combination
        through :func:`repro.experiments.runner.run_algorithm` — sharing one
        problem instance (and therefore the evaluator's caches) per
        (application, scenario) group exactly like ``compare_algorithms``.
        Campaign mode delegates to the sharded campaign engine and folds the
        finished shards back into the same result shape.
        """
        if self._campaign is not None:
            return self._run_campaign()
        experiment = self.experiment()
        if experiment.scenario_models != ("identity",):
            raise ValueError(
                "fault scenarios need campaign mode (shards carry the per-scenario "
                "results the robustness analyses read); call .campaign(output_dir) "
                "or drop .scenarios(...)"
            )
        names = self.algorithm_names()
        self._emit(
            "study_started",
            algorithms=list(names),
            applications=list(experiment.applications),
            objectives=list(experiment.objective_counts),
        )
        entries = self._algorithms or [_AlgorithmEntry(name) for name in names]
        runs: RunMap = {}
        for application in experiment.applications:
            for num_objectives in experiment.objective_counts:
                problem = make_problem(
                    experiment, application, num_objectives, routing_cache=self._routing_cache
                )
                group: dict[str, OptimizationResult] = {}
                for entry in entries:
                    # budget=None defers to the spec's default budget wiring
                    # (Budget.evaluations(experiment.max_evaluations) unless
                    # the registration overrode default_budget), so the façade
                    # and a direct run_algorithm call stay interchangeable.
                    group[entry.name] = run_algorithm(
                        entry.name,
                        problem,
                        experiment,
                        options=entry.options,
                        on_event=self._on_event,
                    )
                runs[(application, num_objectives)] = group
        result = StudyResult(experiment=experiment, algorithms=names, runs=runs)
        self._emit("study_finished", runs=sum(len(group) for group in runs.values()))
        return result

    def submit(self) -> CampaignExecution:
        """Start the study's campaign without blocking and return its handle.

        Campaign-mode only (configure with :meth:`campaign` first).  The
        returned :class:`~repro.experiments.runner.CampaignExecution` streams
        live events (``.events()``), answers progress polls (``.progress()``)
        and joins with ``.wait()``; pass the finished summary to
        :meth:`collect` for the same :class:`StudyResult` a blocking
        :meth:`run` would have produced.  The study's :meth:`on_event`
        subscriber (if any) is invoked from whichever thread consumes the
        handle.
        """
        campaign = self.campaign_config()
        output_dir = Path(self._campaign["output_dir"])
        return submit_campaign(campaign, output_dir, on_event=self._on_event)

    def collect(self, summary: CampaignSummary) -> "StudyResult":
        """Fold a finished campaign's shards into the unified study result."""
        campaign = self.campaign_config()
        aggregate = aggregate_campaign(summary.output_dir)
        return StudyResult(
            experiment=campaign.experiment,
            algorithms=tuple(campaign.algorithms),
            runs=aggregate.runs,
            campaign=summary,
        )

    def _run_campaign(self) -> "StudyResult":
        return self.collect(self.submit().wait())


@dataclass
class StudyResult:
    """Unified outcome of a study: single runs, comparisons and campaigns.

    ``runs`` maps ``(application, num_objectives)`` to the per-algorithm
    :class:`~repro.moo.result.OptimizationResult` map — the same ``RunMap``
    layout the paper's table builders consume.  ``campaign`` carries the
    shard/manifest summary when the study executed as a campaign.
    """

    experiment: ExperimentConfig
    algorithms: tuple[str, ...]
    runs: RunMap
    campaign: "CampaignSummary | None" = None

    def __iter__(self) -> Iterator[tuple[str, int, str, OptimizationResult]]:
        """Yield ``(application, num_objectives, algorithm, result)`` rows."""
        for (application, num_objectives), group in self.runs.items():
            for algorithm, result in group.items():
                yield application, num_objectives, algorithm, result

    def result(
        self,
        algorithm: str,
        application: "str | None" = None,
        num_objectives: "int | None" = None,
    ) -> OptimizationResult:
        """One run's result; cell selectors may be omitted when unambiguous."""
        canonical = default_registry().canonical(algorithm)
        matches = [
            result
            for app, m, name, result in self
            if name == canonical
            and (application is None or app == application.upper())
            and (num_objectives is None or m == num_objectives)
        ]
        if not matches:
            raise KeyError(f"no result for {algorithm!r} ({application}, {num_objectives})")
        if len(matches) > 1:
            raise KeyError(
                f"{len(matches)} results match {algorithm!r}; pass application= and "
                "num_objectives= to disambiguate"
            )
        return matches[0]

    @property
    def target(self) -> str:
        """Comparison target of the tables: MOELA when present, else the first."""
        if not self.algorithms:
            raise ValueError("study produced no runs")
        return "MOELA" if "MOELA" in self.algorithms else self.algorithms[0]

    @property
    def baselines(self) -> tuple[str, ...]:
        """Every algorithm except the comparison target."""
        return tuple(name for name in self.algorithms if name != self.target)

    def table1(self, measure: str = "evaluations") -> TableResult:
        """Table I (speed-up of the target over each baseline)."""
        return build_comparison_table(
            self.runs,
            name=f"Table I: speed-up of {self.target}",
            value_fn=_speedup_value(measure),
            target=self.target,
            baselines=self.baselines or BASELINES,
            strict=False,
        )

    def table2(self) -> TableResult:
        """Table II (PHV gain of the target over each baseline, %)."""
        return build_comparison_table(
            self.runs,
            name=f"Table II: PHV gain of {self.target} (%)",
            value_fn=_phv_gain_value,
            target=self.target,
            baselines=self.baselines or BASELINES,
            strict=False,
        )

    def format_tables(self, measure: str = "evaluations") -> str:
        """Render Table I and Table II as text (needs >= 2 algorithms)."""
        return format_table(self.table1(measure)) + "\n\n" + format_table(self.table2())

    def robustness(self, quantiles: tuple[float, ...] = (0.5, 0.9)) -> RobustnessCertificate:
        """Robustness certificate over the campaign's fault-scenario grid.

        Campaign-mode only: the certificate is computed purely from the
        finished shards (see :mod:`repro.experiments.robustness`), so it
        never re-runs a cell.  Requires completed ``identity`` cells as the
        degradation baseline.
        """
        if self.campaign is None:
            raise ValueError(
                "robustness analyses read finished campaign shards; run the study "
                "in campaign mode (.campaign(output_dir)) with a scenarios axis"
            )
        return robustness_certificate(self.campaign.output_dir, quantiles=quantiles)

    def sensitivity(self) -> SensitivityMap:
        """Per-objective scenario sensitivity map from the campaign's shards."""
        if self.campaign is None:
            raise ValueError(
                "sensitivity maps read finished campaign shards; run the study "
                "in campaign mode (.campaign(output_dir)) with a scenarios axis"
            )
        return sensitivity_map(self.campaign.output_dir)

    def routing_cache_summary(self) -> dict[str, Any]:
        """Folded routing-engine counters across every run of the study.

        Inline runs share one problem (and therefore one routing engine) per
        ``(application, num_objectives)`` group and every result's metadata
        snapshot is *cumulative* over that engine, so the fold takes the last
        algorithm's snapshot per group — summing all snapshots would count
        earlier algorithms' requests once per later algorithm.
        """
        if self.campaign is not None and self.campaign.routing_cache is not None:
            return dict(self.campaign.routing_cache)
        totals = {"hits": 0, "misses": 0, "incremental_repairs": 0}
        for group in self.runs.values():
            snapshots = [
                result.metadata.get("routing_cache")
                for result in group.values()
                if isinstance(result.metadata.get("routing_cache"), Mapping)
            ]
            if not snapshots:
                continue
            for key in totals:
                totals[key] += int(snapshots[-1].get(key, 0))
        requests = sum(totals.values())
        return {
            **totals,
            "requests": requests,
            "hit_rate": totals["hits"] / requests if requests else 0.0,
        }

    def summary_rows(self) -> list[dict[str, Any]]:
        """One compact numeric summary dict per run (table-friendly)."""
        rows = []
        for application, num_objectives, algorithm, result in self:
            row = {"application": application, "num_objectives": num_objectives}
            row.update(result.summary())
            rows.append(row)
        return rows
