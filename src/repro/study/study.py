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
import os
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, NamedTuple

from repro.experiments.config import EXPERIMENT_CHECKS, CampaignConfig, ExperimentConfig
from repro.experiments.runner import (
    CampaignExecution,
    CampaignSummary,
    make_problem,
    run_algorithm,
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
from repro.study.events import EventCallback, StudyEvent
from repro.study.registry import default_registry
from repro.utils.serialization import platform_to_dict
from repro.utils.validation import require_count, require_flag

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


def resolve_platform(platform: "str | PlatformConfig") -> PlatformConfig:
    """Resolve a platform name (or pass a config through)."""
    if isinstance(platform, PlatformConfig):
        return platform
    if not isinstance(platform, str):
        raise TypeError(f"platform must be a name or a PlatformConfig, got {platform!r}")
    factory = PLATFORM_FACTORIES.get(platform.strip().lower().replace("_", "-"))
    if factory is None:
        known = ", ".join(sorted(set(PLATFORM_FACTORIES)))
        raise ValueError(f"unknown platform {platform!r}; available: {known}")
    return factory()


def _preset(value: Any, key: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a preset name, got {value!r}")
    if value not in PRESETS:
        raise ValueError(f"unknown {key} {value!r}; available: {', '.join(sorted(PRESETS))}")
    return value


def _platform(value: Any, key: str) -> PlatformConfig:
    """A platform name, a ``PlatformConfig`` or a table of its fields."""
    return PlatformConfig(**value) if isinstance(value, Mapping) else resolve_platform(value)


def _applications(value: Any, key: str) -> tuple[str, ...]:
    return tuple(name.upper() for name in EXPERIMENT_CHECKS["applications"](value, key))


def _objectives(value: Any, key: str) -> tuple[int, ...]:
    """One objective count or a list of them."""
    counts = value if isinstance(value, (list, tuple)) else (value,)
    return EXPERIMENT_CHECKS["objective_counts"](counts, key)


def _algorithms(value: Any, key: str) -> tuple[Any, ...]:
    """Registered algorithm names or ``{name, options}`` maps, each at most once.

    Option names and the type of a ``population_size`` override (at least 2,
    the smallest population any optimizer takes) are checked here; the other
    option values by the optimizer that stores them, which :meth:`Study.run`
    builds before the study starts.
    """
    if isinstance(value, str) or not isinstance(value, (list, tuple)):
        raise TypeError(f"{key} must be a list of names or {{name, options}} maps, got {value!r}")
    names: list[str] = []
    configs: list[Any] = []
    for item in value:
        entry = {"name": item} if isinstance(item, str) else item
        if not isinstance(entry, Mapping) or not isinstance(entry.get("name"), str):
            raise TypeError(f"{key} entries must be names or {{name, options}} maps, got {item!r}")
        extra = sorted(set(entry) - {"name", "options"})
        if extra:
            raise ValueError(f"unknown algorithm-entry keys {extra}; accepted: name, options")
        spec = default_registry().spec(entry["name"])
        options = dict(entry.get("options", {}))
        spec.validate_options(options)
        if "population_size" in options:
            require_count(options["population_size"], "population_size", 2)
        if spec.name in names:
            raise ValueError(f"algorithm {spec.name!r} is already part of the study")
        names.append(spec.name)
        configs.append({"name": spec.name, "options": options} if options else spec.name)
    return tuple(configs)


def _campaign(value: Any, key: str) -> dict[str, Any]:
    """The ``campaign`` table: its own keys only, and an ``output_dir``."""
    if not isinstance(value, Mapping):
        raise TypeError(f"{key} must be a table of campaign keys, got {value!r}")
    accepted = [name.partition(".")[2] for name in STUDY_KEYS if name.startswith("campaign.")]
    extra = sorted(set(value) - set(accepted))
    if extra:
        raise ValueError(f"unknown campaign keys {extra}; accepted: {', '.join(accepted)}")
    if "output_dir" not in value:
        raise ValueError("campaign configuration requires an output_dir")
    return {name: STUDY_KEYS[f"campaign.{name}"].check(item, name) for name, item in value.items()}


def _output_dir(value: Any, key: str) -> str:
    if not isinstance(value, (str, os.PathLike)):
        raise TypeError(f"{key} must be a path, got {value!r}")
    return os.fspath(value)


class _Key(NamedTuple):
    """The config (``None``: read by the study) and field a key sets, and its check."""

    config: "type | None"
    field: "str | None"
    check: Callable[[Any, str], Any]


#: Every declarative study key, declared once.  This table drives the
#: constructor, the fluent setters, :meth:`Study.from_dict`,
#: :meth:`Study.to_dict`, :meth:`Study.campaign`, :meth:`Study.experiment` and
#: :meth:`Study.campaign_config`.  Keys of the ``campaign`` table are written
#: ``campaign.<key>``.  A check takes ``(value, key)``, returns the value to
#: store and raises ``TypeError`` for a wrong type and ``ValueError`` for a
#: wrong value, naming the key.  Keys that set an ``ExperimentConfig`` field
#: run that field's own check.
STUDY_KEYS: dict[str, _Key] = {
    "preset": _Key(None, None, _preset),
    "platform": _Key(ExperimentConfig, "platform", _platform),
    "applications": _Key(ExperimentConfig, "applications", _applications),
    "objectives": _Key(ExperimentConfig, "objective_counts", _objectives),
    "algorithms": _Key(None, None, _algorithms),
    "population_size": _Key(
        ExperimentConfig, "population_size", EXPERIMENT_CHECKS["population_size"]
    ),
    "evaluations": _Key(ExperimentConfig, "max_evaluations", EXPERIMENT_CHECKS["max_evaluations"]),
    "scenarios": _Key(ExperimentConfig, "scenario_models", EXPERIMENT_CHECKS["scenario_models"]),
    "seed": _Key(ExperimentConfig, "seed", EXPERIMENT_CHECKS["seed"]),
    "campaign": _Key(None, None, _campaign),
    "campaign.output_dir": _Key(None, None, _output_dir),
    "campaign.max_workers": _Key(CampaignConfig, "max_workers", partial(require_count, minimum=1)),
    "campaign.resume": _Key(CampaignConfig, "resume", require_flag),
}


def _fields(settings: Mapping[str, Any], config: type, prefix: str = "") -> dict[str, Any]:
    """The ``settings`` whose key sets a field of ``config``, keyed by that field."""
    rows = {key: STUDY_KEYS[prefix + key] for key in settings}
    return {rows[key].field: value for key, value in settings.items() if rows[key].config is config}


def _plain(value: Any) -> Any:
    """A stored setting as the plain data :meth:`Study.from_dict` reads back."""
    if isinstance(value, PlatformConfig):
        # A named platform is matched by its factory name first (cheap,
        # deterministic), then confirmed by value — a custom config that
        # merely reuses a factory's name still serialises field-by-field.
        factory = PLATFORM_FACTORIES.get(value.name)
        return value.name if factory is not None and factory() == value else platform_to_dict(value)
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


class Study:
    """Declaratively configured bundle of optimisation runs.

    Parameters mirror the declarative schema; every one is optional and can
    also be set fluently afterwards (each fluent method returns ``self``).
    Every value is checked by :data:`STUDY_KEYS` when it is set.

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
    ):
        self._settings: dict[str, Any] = {}
        self._on_event: EventCallback | None = None
        overrides = {
            "preset": preset,
            "platform": platform,
            "applications": apps,
            "objectives": objectives,
            "population_size": population_size,
            "evaluations": evaluations,
            "seed": seed,
            "scenarios": scenarios,
        }
        for key, value in overrides.items():
            if value is not None:
                self._set(key, value)

    def _set(self, key: str, value: Any) -> "Study":
        """Store ``value`` under ``key`` once the key's check has passed it."""
        self._settings[key] = STUDY_KEYS[key].check(value, key)
        return self

    # ------------------------------------------------------------------ #
    # Fluent builder
    # ------------------------------------------------------------------ #
    def algorithm(self, name: str, **options: Any) -> "Study":
        """Add one algorithm (any registered spelling) with overrides.

        The name is canonicalised and the override names checked against the
        optimiser's declared hyperparameter schema immediately, so a typo
        fails at build time, not hours into a campaign.  So does a
        ``population_size`` that is not an integer; the other override
        values are checked when :meth:`run` starts.
        """
        entries = self._settings.get("algorithms", ())
        return self._set("algorithms", (*entries, {"name": name, "options": options}))

    def algorithms(self, *names: str) -> "Study":
        """Add several algorithms without overrides."""
        return self._set("algorithms", (*self._settings.get("algorithms", ()), *names))

    def clear_algorithms(self) -> "Study":
        """Drop every configured algorithm (e.g. before replacing the list)."""
        self._settings.pop("algorithms", None)
        return self

    def apps(self, *applications: str) -> "Study":
        """Set the applications evaluated by every algorithm."""
        return self._set("applications", applications)

    def objectives(self, *counts: int) -> "Study":
        """Set the objective scenarios (3, 4 and/or 5)."""
        return self._set("objectives", counts)

    def platform(self, platform: "str | PlatformConfig") -> "Study":
        """Set the platform by name or config."""
        return self._set("platform", platform)

    def preset(self, name: str) -> "Study":
        """Select the base experiment preset the overrides apply to."""
        return self._set("preset", name)

    def evaluations(self, budget: int) -> "Study":
        """Set the per-run evaluation budget (an integer >= 10)."""
        return self._set("evaluations", budget)

    def population_size(self, size: int) -> "Study":
        """Set the population / archive size for every algorithm (an integer >= 4)."""
        return self._set("population_size", size)

    def seed(self, seed: int) -> "Study":
        """Set the base seed per-cell seeds are derived from (an integer >= 0)."""
        return self._set("seed", seed)

    def scenarios(self, *models: str) -> "Study":
        """Set the fault/scenario grid axis (canonical keys; campaign mode).

        Include ``"identity"`` alongside the fault models when robustness
        analyses should compare against the nominal baseline (they need it).
        """
        return self._set("scenarios", models)

    def on_event(self, callback: "EventCallback | None") -> "Study":
        """Subscribe a callback to the study's streaming progress events."""
        self._on_event = callback
        return self

    def campaign(
        self,
        output_dir: "str | os.PathLike[str]",
        max_workers: "int | None" = None,
        resume: "bool | None" = None,
    ) -> "Study":
        """Execute as a sharded, resumable campaign instead of inline runs.

        Every cell's events — pooled or inline — stream through the durable
        ``events.jsonl`` next to the manifest; it is also what
        :meth:`submit`'s non-blocking handle tails.  Every cell owns its
        route cache (see :class:`~repro.experiments.config.CampaignConfig`).
        Settings left at ``None`` keep the ``CampaignConfig`` defaults (one
        worker, resume on).
        """
        settings = {"output_dir": output_dir, "max_workers": max_workers, "resume": resume}
        return self._set("campaign", {k: v for k, v in settings.items() if v is not None})

    def campaign_settings(self) -> "dict[str, Any] | None":
        """Copy of the configured campaign settings (None in inline mode)."""
        return dict(self._settings["campaign"]) if "campaign" in self._settings else None

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
        accepted = [key for key in STUDY_KEYS if "." not in key]
        unknown = sorted(set(payload) - set(accepted))
        if unknown:
            raise ValueError(f"unknown study keys {unknown}; accepted: {', '.join(accepted)}")
        study = cls()
        for key, value in payload.items():
            study._set(key, value)
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

        Only explicitly set keys are emitted, so the dict stays minimal and
        the round-tripped study resolves every default identically.
        """
        return {key: _plain(self._settings[key]) for key in STUDY_KEYS if key in self._settings}

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _entries(self) -> list[tuple[str, dict[str, Any]]]:
        """``(name, options)`` of each algorithm (every builtin, without overrides, if unset)."""
        configs = self._settings.get("algorithms") or default_registry().names()
        return [(c, {}) if isinstance(c, str) else (c["name"], c["options"]) for c in configs]

    def algorithm_names(self) -> tuple[str, ...]:
        """Canonical names of the study's algorithms (every builtin if unset)."""
        return tuple(name for name, _ in self._entries())

    def experiment(self) -> ExperimentConfig:
        """The :class:`ExperimentConfig` the study's runs execute under."""
        preset = PRESETS[self._settings["preset"]]()
        return replace(preset, **_fields(self._settings, ExperimentConfig))

    def campaign_config(self) -> CampaignConfig:
        """The :class:`CampaignConfig` a campaign-mode study runs."""
        if "campaign" not in self._settings:
            raise ValueError("study has no campaign configuration; call .campaign(output_dir)")
        entries = self._entries()
        with_options = [name for name, options in entries if options]
        if with_options:
            raise ValueError(
                f"campaign mode does not support per-algorithm hyperparameter overrides "
                f"(set on {with_options}); campaigns wire every cell from the shared "
                "experiment configuration"
            )
        return CampaignConfig(
            experiment=self.experiment(),
            algorithms=tuple(name for name, _ in entries),
            **_fields(self._settings["campaign"], CampaignConfig, "campaign."),
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
        Every optimiser is built once on the first group's problem before the
        study starts, so a bad override value fails before any run.
        Campaign mode delegates to the sharded campaign engine and folds the
        finished shards back into the same result shape.
        """
        if "campaign" in self._settings:
            return self._run_campaign()
        experiment = self.experiment()
        if experiment.scenario_models != ("identity",):
            raise ValueError(
                "fault scenarios need campaign mode (shards carry the per-scenario "
                "results the robustness analyses read); call .campaign(output_dir) "
                "or drop .scenarios(...)"
            )
        entries = self._entries()
        names = tuple(name for name, _ in entries)
        cells = [(a, m) for a in experiment.applications for m in experiment.objective_counts]
        if cells:  # build every optimiser once: a bad override fails before any run
            problem = make_problem(experiment, *cells[0])
            for name, options in entries:
                default_registry().create(name, problem, experiment, experiment.seed, **options)
        self._emit(
            "study_started",
            algorithms=list(names),
            applications=list(experiment.applications),
            objectives=list(experiment.objective_counts),
        )
        runs: RunMap = {}
        for application, num_objectives in cells:
            if runs:  # the first group runs on the problem built above
                problem = make_problem(experiment, application, num_objectives)
            group: dict[str, OptimizationResult] = {}
            for name, options in entries:
                # budget=None defers to the spec's default budget wiring
                # (Budget.evaluations(experiment.max_evaluations) unless
                # the registration overrode default_budget), so the façade
                # and a direct run_algorithm call stay interchangeable.
                group[name] = run_algorithm(
                    name, problem, experiment, options=options, on_event=self._on_event
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
        output_dir = Path(self._settings["campaign"]["output_dir"])
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
