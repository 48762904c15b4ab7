"""Runs the optimisers on (application, scenario) problem instances.

Besides the single-run helpers (:func:`run_algorithm`,
:func:`compare_algorithms`), this module hosts the campaign engine: the full
(algorithm x application x scenario) grid, run inline or fanned out over a
process pool, each cell streaming its result to one JSON shard next to a
manifest so a killed campaign resumes by running only the missing cells
(:func:`run_campaign`).

Campaigns are asynchronous and observable across processes, through one
event path: every cell — pool worker or inline — appends its
:class:`~repro.study.events.StudyEvent`\\ s to a durable ``events.jsonl``
next to the manifest (:mod:`repro.study.event_log`), a manifest-side tailer
replays them into the caller's subscribers, and :func:`submit_campaign`
returns a non-blocking :class:`CampaignExecution` handle (``.events()`` /
``.progress()`` / ``.wait()``).  :func:`run_campaign` is simply
``submit + wait``.

Finished shard directories can be bounded with
:func:`repro.experiments.compaction.compact_campaign`: completed shards roll
into a single indexed ``rollup.jsonl`` recorded in the manifest, and every
reader here (:func:`load_campaign_results`, :func:`campaign_status`, resume)
reads rollup-or-shards transparently.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.core.problem import NocDesignProblem
from repro.experiments.config import CampaignConfig, ExperimentConfig
from repro.moo.result import OptimizationResult
from repro.moo.termination import Budget
from repro.study.event_log import EVENT_LOG_NAME, EventLogReader, EventLogWriter
from repro.study.events import EventCallback, StudyEvent
from repro.study.optimizers import BUILTIN_ALGORITHMS
from repro.study.registry import default_registry
from repro.utils.serialization import result_from_dict, result_to_dict, write_json_atomic
from repro.workloads.registry import get_workload

#: Canonical names of the built-in algorithms.  :func:`run_algorithm` accepts
#: anything registered with the :class:`~repro.study.registry.OptimizerRegistry`
#: (including third-party registrations), under any alias spelling.
ALGORITHMS: tuple[str, ...] = BUILTIN_ALGORITHMS

#: File name of the campaign manifest inside a campaign output directory.
MANIFEST_NAME = "manifest.json"

#: Format tag written into every manifest (bump on incompatible changes).
MANIFEST_FORMAT = "repro-campaign/1"

#: File name of the shard rollup written by ``compact_campaign`` (one compact
#: JSON line per compacted cell; the byte-range index lives in the manifest's
#: ``rollup`` record so single cells are read with one seek, never a full
#: parse of the rollup).
ROLLUP_NAME = "rollup.jsonl"

#: Format tag of the manifest's ``rollup`` record.
ROLLUP_FORMAT = "repro-campaign-rollup/1"


def make_problem(
    experiment: ExperimentConfig,
    application: str,
    num_objectives: int,
    scenario_model: str = "identity",
    scenario_seed: int = 0,
) -> NocDesignProblem:
    """Build the NoC design problem for one application and objective scenario.

    ``scenario_model`` optionally degrades the evaluation landscape (see
    :mod:`repro.scenarios`); ``scenario_seed`` seeds its deterministic
    streams (campaign cells pass their derived cell seed).  Every problem
    owns its evaluator's route cache; nothing is shared between problems.
    """
    workload = get_workload(application, experiment.platform, seed=experiment.seed)
    return NocDesignProblem(
        workload,
        scenario=num_objectives,
        scenario_model=scenario_model,
        scenario_seed=scenario_seed,
    )


def _derived_seed(
    experiment: ExperimentConfig,
    algorithm: str,
    application: str,
    num_objectives: int,
    scenario: str = "identity",
) -> int:
    """Deterministic per-(algorithm, application, scenario) seed.

    Derived by hashing the cell identity together with the base seed, so every
    cell of a campaign grid gets a unique, reproducible stream (the previous
    weighted character sum could collide between cells, which would correlate
    searches that the paper's protocol treats as independent).  The identity
    scenario model is excluded from the hash string, so identity cells keep
    the exact seeds of pre-scenario campaigns (bit-identical shards, and old
    output directories stay resumable).
    """
    identity = f"{experiment.seed}|{algorithm}|{application}|{num_objectives}"
    if scenario != "identity":
        identity = f"{identity}|{scenario}"
    digest = hashlib.sha256(identity.encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def run_algorithm(
    algorithm: str,
    problem: NocDesignProblem,
    experiment: ExperimentConfig,
    budget: Budget | None = None,
    seed: int | None = None,
    options: Mapping[str, Any] | None = None,
    on_event: EventCallback | None = None,
) -> OptimizationResult:
    """Run one algorithm on one problem instance and return its result.

    The algorithm name (any spelling the
    :class:`~repro.study.registry.OptimizerRegistry` accepts) is resolved to
    its registered spec, which owns the experiment-to-constructor wiring.
    ``options`` are hyper-parameter overrides validated against the spec's
    declared schema; ``on_event`` subscribes the run to streaming
    :class:`~repro.study.events.StudyEvent` progress (observation-only — a
    subscribed run is bit-identical to a silent one).
    """
    spec = default_registry().spec(algorithm)
    budget = budget if budget is not None else spec.budget_for(experiment)
    if seed is None:
        seed = _derived_seed(experiment, spec.name, problem.workload.name, problem.num_objectives)
    optimizer = spec.create(problem, experiment, seed, **dict(options or {}))
    if on_event is not None:
        optimizer.on_event = on_event
        optimizer.event_context = {
            "algorithm": spec.name,
            "application": problem.workload.name,
            "num_objectives": problem.num_objectives,
        }
    return optimizer.run(budget)


def compare_algorithms(
    algorithms: list[str],
    experiment: ExperimentConfig,
    application: str,
    num_objectives: int,
    budget: Budget | None = None,
    on_event: EventCallback | None = None,
) -> dict[str, OptimizationResult]:
    """Run several algorithms on the same problem instance with matched budgets.

    Results are keyed by canonical algorithm name (aliases fold together).
    """
    registry = default_registry()
    problem = make_problem(experiment, application, num_objectives)
    results: dict[str, OptimizationResult] = {}
    for algorithm in algorithms:
        results[registry.canonical(algorithm)] = run_algorithm(
            algorithm, problem, experiment, budget=budget, on_event=on_event
        )
    return results


# ---------------------------------------------------------------------- #
# Campaign engine
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CampaignCell:
    """One (algorithm, application, objective scenario, fault scenario) cell.

    ``scenario`` is a canonical scenario-model key (:mod:`repro.scenarios`).
    The default ``"identity"`` serialises, keys and hashes exactly like the
    pre-scenario cell format — identity campaigns produce byte-identical
    manifests and shards and resume from pre-scenario output directories.
    """

    algorithm: str
    application: str
    num_objectives: int
    seed: int
    scenario: str = "identity"

    @property
    def key(self) -> str:
        """Filesystem-safe cell identifier, e.g. ``MOEA-D_BFS_3obj``.

        Non-identity cells append a slug of the scenario key, e.g.
        ``MOEA-D_BFS_3obj_link_failure-k-1-mode-remove-derate_factor-0.5``.
        """
        algorithm = re.sub(r"[^A-Za-z0-9.-]+", "-", self.algorithm)
        base = f"{algorithm}_{self.application}_{self.num_objectives}obj"
        if self.scenario != "identity":
            scenario = re.sub(r"[^A-Za-z0-9._-]+", "-", self.scenario).strip("-")
            return f"{base}_{scenario}"
        return base

    @property
    def shard_name(self) -> str:
        """File name of the cell's result shard."""
        return f"cell_{self.key}.json"

    def to_dict(self) -> dict[str, Any]:
        """JSON representation used in the manifest and shard headers.

        The ``scenario`` field is only present for non-identity cells, so
        identity payloads stay byte-identical to the pre-scenario format
        (shard identity matching in :func:`cell_payload` compares these
        dicts verbatim).
        """
        payload = {
            "algorithm": self.algorithm,
            "application": self.application,
            "num_objectives": self.num_objectives,
            "seed": self.seed,
            "shard": self.shard_name,
        }
        if self.scenario != "identity":
            payload["scenario"] = self.scenario
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "CampaignCell":
        """Rebuild a cell from :meth:`to_dict` output."""
        return cls(
            algorithm=payload["algorithm"],
            application=payload["application"],
            num_objectives=int(payload["num_objectives"]),
            seed=int(payload["seed"]),
            scenario=str(payload.get("scenario", "identity")),
        )


@dataclass
class CampaignSummary:
    """Outcome of one :func:`run_campaign` invocation."""

    output_dir: Path
    manifest_path: Path
    cells: list[CampaignCell]
    executed: list[str]
    skipped: list[str]
    routing_cache: "dict[str, Any] | None" = None  # aggregate engine counters (see manifest)

    def shard_path(self, key: str) -> Path:
        """Path of the shard for a cell key."""
        for cell in self.cells:
            if cell.key == key:
                return self.output_dir / cell.shard_name
        raise KeyError(f"unknown cell key {key!r}")


def campaign_cells(campaign: CampaignConfig) -> list[CampaignCell]:
    """The full cell grid of a campaign, with per-cell derived seeds.

    Algorithm names are canonicalised through the optimizer registry, so alias
    spellings (``"MOEAD"`` vs ``"MOEA/D"``) always map to the same cell, seed
    and shard; unknown names raise with the registry's available-names
    message.
    """
    registry = default_registry()
    algorithms = tuple(
        registry.canonical(algorithm)
        for algorithm in (tuple(campaign.algorithms) or ALGORITHMS)
    )
    experiment = campaign.experiment
    cells = [
        CampaignCell(
            algorithm=algorithm,
            application=application,
            num_objectives=num_objectives,
            seed=_derived_seed(experiment, algorithm, application, num_objectives, scenario),
            scenario=scenario,
        )
        for algorithm in algorithms
        for application in experiment.applications
        for num_objectives in experiment.objective_counts
        for scenario in experiment.scenario_models
    ]
    keys = [cell.key for cell in cells]
    if len(set(keys)) != len(keys):
        raise ValueError("campaign grid contains duplicate cells (repeated algorithm/application?)")
    return cells


def _manifest_payload(campaign: CampaignConfig, cells: list[CampaignCell]) -> dict[str, Any]:
    experiment = campaign.experiment
    return {
        "format": MANIFEST_FORMAT,
        "platform": experiment.platform.name,
        "base_seed": experiment.seed,
        "cell_budget": campaign.cell_budget,
        "population_size": experiment.population_size,
        "cells": [cell.to_dict() for cell in cells],
    }


def load_manifest(output_dir: "str | Path") -> dict[str, Any]:
    """Read a campaign manifest written by :func:`run_campaign`."""
    path = Path(output_dir) / MANIFEST_NAME
    payload = json.loads(path.read_text())
    if payload.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"{path} is not a {MANIFEST_FORMAT} manifest")
    return payload


def cell_payload(
    output_dir: "str | Path", cell: CampaignCell, rollup: "Mapping[str, Any] | None" = None
) -> "dict[str, Any] | None":
    """The cell's completed result payload, from its loose shard or the rollup.

    A loose shard wins over a rollup entry (a re-run cell writes a fresh
    shard that must supersede its compacted copy); the rollup — the
    manifest's ``rollup`` record, whose byte-range index lets one cell be
    read with a single seek — answers for every compacted cell.  Either
    source must parse *and* match the cell's identity, guarding against
    foreign files and stale entries from a differently-seeded campaign.
    Returns ``None`` for an incomplete cell.
    """
    output_dir = Path(output_dir)
    try:
        payload = json.loads((output_dir / cell.shard_name).read_text())
        if isinstance(payload, dict) and payload.get("cell") == cell.to_dict():
            return payload
    except (OSError, json.JSONDecodeError):
        pass
    if rollup:
        entry = rollup.get("cells", {}).get(cell.key)
        if entry is not None:
            try:
                offset, length = int(entry[0]), int(entry[1])
                with open(output_dir / rollup.get("file", ROLLUP_NAME), "rb") as handle:
                    handle.seek(offset)
                    payload = json.loads(handle.read(length))
                if isinstance(payload, dict) and payload.get("cell") == cell.to_dict():
                    return payload
            except (OSError, ValueError, TypeError):
                return None
    return None


def _shard_complete(
    output_dir: Path, cell: CampaignCell, rollup: "Mapping[str, Any] | None" = None
) -> bool:
    """True when the cell has a completed result (loose shard or rollup entry)."""
    return cell_payload(output_dir, cell, rollup) is not None


def aggregate_routing_cache_stats(
    output_dir: "str | Path",
    cells: list[CampaignCell],
    rollup: "Mapping[str, Any] | None" = None,
) -> dict[str, Any]:
    """Fold the per-shard routing-cache counters into one campaign summary.

    Cells whose shard predates the routing-cache format (or is missing) are
    counted in ``cells_missing_stats`` instead of silently skewing the rate.
    """
    output_dir = Path(output_dir)
    totals = {"hits": 0, "misses": 0, "incremental_repairs": 0}
    counted = 0
    missing = 0
    for cell in cells:
        # One parse per shard: completion check (shard parses and matches the
        # cell identity) and counter extraction share the same payload —
        # paper-scale shards are multi-MB, so re-parsing per question adds up.
        payload = cell_payload(output_dir, cell, rollup)
        if payload is None:
            continue
        stats = payload.get("routing_cache")
        if not isinstance(stats, dict):
            missing += 1
            continue
        counted += 1
        for field_name in totals:
            totals[field_name] += int(stats.get(field_name, 0))
    requests = totals["hits"] + totals["misses"] + totals["incremental_repairs"]
    return {
        "cells_counted": counted,
        "cells_missing_stats": missing,
        **totals,
        "requests": requests,
        "hit_rate": totals["hits"] / requests if requests else 0.0,
    }


def campaign_status(output_dir: "str | Path") -> dict[str, bool]:
    """Completion state of every cell recorded in a campaign manifest."""
    output_dir = Path(output_dir)
    manifest = load_manifest(output_dir)
    rollup = manifest.get("rollup")
    cells = [CampaignCell.from_dict(entry) for entry in manifest["cells"]]
    return {cell.key: _shard_complete(output_dir, cell, rollup) for cell in cells}


def load_campaign_results(output_dir: "str | Path") -> Iterator[tuple[CampaignCell, OptimizationResult]]:
    """Yield ``(cell, result)`` for every completed cell of a campaign.

    Results are loaded lazily, one cell at a time — from loose shards or the
    compacted rollup, transparently — so summarising a large campaign never
    holds more than one cell's result in memory.
    """
    output_dir = Path(output_dir)
    manifest = load_manifest(output_dir)
    rollup = manifest.get("rollup")
    for entry in manifest["cells"]:
        cell = CampaignCell.from_dict(entry)
        payload = cell_payload(output_dir, cell, rollup)
        if payload is not None:
            yield cell, result_from_dict(payload)


def _run_campaign_cell(
    campaign: CampaignConfig,
    cell: CampaignCell,
    output_dir: str,
) -> dict[str, Any]:
    """Run one grid cell and stream its result to the cell's shard.

    Executed inside pool workers, so it takes only picklable arguments and
    writes the (potentially large) result to disk in the worker instead of
    shipping it back to the parent.  The cell's events — ``shard_started``,
    the optimiser's ``run_started``/``iteration``/``run_finished`` stream and
    ``shard_finished`` with the routing-cache counters — are appended
    atomically to the durable event log next to the manifest, which is how
    pooled and inline cells alike reach the caller's subscribers.
    ``shard_finished`` is appended *after* the shard's atomic write, so a
    logged completion always refers to a readable shard, however the
    campaign dies afterwards.

    Each cell builds its own problem and therefore its own route cache, so
    the shard's ``routing_cache`` record counts this cell's traffic alone
    and is the same whether the cell runs inline or in a pool worker.
    """
    experiment = campaign.experiment
    problem = make_problem(
        experiment,
        cell.application,
        cell.num_objectives,
        scenario_model=cell.scenario,
        scenario_seed=cell.seed,
    )
    writer = EventLogWriter(Path(output_dir) / EVENT_LOG_NAME, origin=f"cell-{cell.key}")
    try:
        writer.append(_cell_event("shard_started", cell))
        result = run_algorithm(
            cell.algorithm,
            problem,
            experiment,
            budget=Budget.evaluations(campaign.cell_budget),
            seed=cell.seed,
            on_event=writer.append,
        )
        routing_stats = problem.routing_cache_stats()
        payload = result_to_dict(result)
        payload["cell"] = cell.to_dict()
        payload["routing_cache"] = routing_stats
        write_json_atomic(payload, Path(output_dir) / cell.shard_name)
        outcome = {
            "key": cell.key,
            "evaluations": int(result.evaluations),
            "elapsed_seconds": float(result.elapsed_seconds),
            "routing_cache": routing_stats,
        }
        writer.append(
            _cell_event(
                "shard_finished",
                cell,
                evaluations=outcome["evaluations"],
                elapsed_seconds=outcome["elapsed_seconds"],
                routing_cache=routing_stats,
            )
        )
    finally:
        writer.close()
    return outcome


def _cell_event(kind: str, cell: CampaignCell, **payload: Any) -> StudyEvent:
    """Shard-level progress event for one campaign cell.

    Non-identity cells carry their scenario key in the event payload;
    identity cells emit the exact pre-scenario event shape.
    """
    evaluations = payload.pop("evaluations", None)
    elapsed = payload.pop("elapsed_seconds", 0.0)
    extra = {"scenario": cell.scenario} if cell.scenario != "identity" else {}
    return StudyEvent(
        kind=kind,
        algorithm=cell.algorithm,
        application=cell.application,
        num_objectives=cell.num_objectives,
        evaluations=evaluations,
        elapsed_seconds=elapsed,
        payload={"key": cell.key, **extra, **payload},
    )


def _execute_campaign(
    campaign: CampaignConfig,
    output_dir: Path,
    emit: EventCallback,
) -> CampaignSummary:
    """Blocking campaign body behind :func:`submit_campaign`.

    ``emit`` (the parent's event-log writer) receives the campaign-level
    events: ``campaign_started``, ``shard_skipped`` and
    ``campaign_finished``.  Cell-level events come from
    :func:`_run_campaign_cell`, which appends them to the same log, so
    pooled and inline campaigns produce the identical stream.
    """
    output_dir.mkdir(parents=True, exist_ok=True)
    cells = campaign_cells(campaign)

    manifest_path = output_dir / MANIFEST_NAME
    rollup: "dict[str, Any] | None" = None
    if manifest_path.exists():
        existing = load_manifest(output_dir)
        if existing["cells"] != [cell.to_dict() for cell in cells]:
            raise ValueError(
                f"{output_dir} holds a different campaign grid; "
                "use a fresh output directory (or matching configuration) to resume"
            )
        if existing.get("cell_budget") != campaign.cell_budget:
            raise ValueError(
                f"{output_dir} was run with a per-cell budget of "
                f"{existing.get('cell_budget')} evaluations, not {campaign.cell_budget}; "
                "resuming would mix budgets across cells — use a fresh output "
                "directory or the original budget"
            )
        # A compacted directory's rollup record must survive the manifest
        # rewrite, or resume would forget every compacted cell.
        rollup = existing.get("rollup")
    manifest_payload = _manifest_payload(campaign, cells)
    if rollup is not None:
        manifest_payload["rollup"] = rollup
    write_json_atomic(manifest_payload, manifest_path)

    if campaign.resume:
        done = {cell.key for cell in cells if _shard_complete(output_dir, cell, rollup)}
    else:
        done = set()
    pending = [cell for cell in cells if cell.key not in done]

    emit(
        StudyEvent(
            kind="campaign_started",
            payload={
                "cells": len(cells),
                "pending": len(pending),
                "skipped": len(cells) - len(pending),
                "output_dir": str(output_dir),
            },
        )
    )
    for cell in cells:
        if cell.key in done:
            emit(_cell_event("shard_skipped", cell))

    if campaign.max_workers > 1 and len(pending) > 1:
        workers = min(campaign.max_workers, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_campaign_cell, campaign, cell, str(output_dir))
                for cell in pending
            ]
            for future in as_completed(futures):
                future.result()
    else:
        for cell in pending:
            _run_campaign_cell(campaign, cell, str(output_dir))

    # Fold every completed shard's routing-engine counters into the manifest
    # so a finished campaign reports its cache effectiveness without anyone
    # re-reading the shards.  The rollup record is re-read rather than taken
    # from the start-of-run snapshot: compact_campaign may have run against
    # this directory while the cells executed, and carrying a stale (or
    # absent) record forward would orphan the cells it compacted.
    try:
        rollup = load_manifest(output_dir).get("rollup")
    except (OSError, ValueError):
        pass  # keep the snapshot if the manifest is momentarily unreadable
    routing_stats = aggregate_routing_cache_stats(output_dir, cells, rollup)
    manifest_payload = _manifest_payload(campaign, cells)
    if rollup is not None:
        manifest_payload["rollup"] = rollup
    manifest_payload["routing_cache"] = routing_stats
    write_json_atomic(manifest_payload, manifest_path)

    emit(
        StudyEvent(
            kind="campaign_finished",
            payload={
                "executed": len(pending),
                "skipped": len(cells) - len(pending),
                "routing_cache": routing_stats,
                "output_dir": str(output_dir),
            },
        )
    )

    return CampaignSummary(
        output_dir=output_dir,
        manifest_path=manifest_path,
        cells=cells,
        executed=[cell.key for cell in pending],
        skipped=[cell.key for cell in cells if cell.key in done],
        routing_cache=routing_stats,
    )


class CampaignExecution:
    """Non-blocking handle over a running campaign (see :func:`submit_campaign`).

    The campaign body runs on a background thread; this handle is the
    caller's side of the event stream.  Every event — campaign brackets from
    the parent, shard and iteration events from the cells, pooled or inline
    — round-trips through the durable ``events.jsonl`` and is replayed here
    by a manifest-side tailer.  The subscriber passed to
    :func:`submit_campaign` is invoked on the thread that consumes the
    handle (:meth:`wait`, :meth:`events` or :meth:`poll`), never
    concurrently with it.

    The handle is a single-consumer object: drive it with *one* of
    :meth:`events` (live iteration), :meth:`wait` (block to completion,
    pumping subscribers), or repeated :meth:`poll`/:meth:`progress` calls —
    all three share one pump, so e.g. calling :meth:`progress` from inside an
    :meth:`events` loop would drain events the iterator then never yields
    (read the counters off the yielded events instead).

    Asynchrony changes failure semantics versus the old inline
    ``run_campaign``: the campaign body is not torn down by its observers.
    A subscriber exception (or a :meth:`wait` timeout) propagates to the
    *consumer* while the cells keep executing in the background; the handle
    stays valid, so call :meth:`wait` again to resume pumping and join.  Do
    not start a second campaign in the same output directory while a handle
    is unfinished.
    """

    def __init__(
        self,
        campaign: CampaignConfig,
        output_dir: "str | Path",
        on_event: EventCallback | None = None,
    ):
        self.campaign = campaign
        self.output_dir = Path(output_dir)
        self._on_event = on_event
        self._summary: CampaignSummary | None = None
        self._error: BaseException | None = None
        self._finished = threading.Event()
        self._counts = {"total": len(campaign_cells(campaign)), "started": 0,
                        "finished": 0, "skipped": 0, "evaluations": 0}
        self.output_dir.mkdir(parents=True, exist_ok=True)
        log_path = self.output_dir / EVENT_LOG_NAME
        # Tail from the current end: a resumed campaign appends to the
        # previous run's durable log, and subscribers must only see this
        # invocation's events.
        self._reader = EventLogReader(log_path, start_at_end=True)
        self._writer = EventLogWriter(log_path, origin="campaign")
        self._thread = threading.Thread(
            target=self._execute, name="repro-campaign", daemon=True
        )

    # ------------------------------------------------------------------ #
    # Background execution
    # ------------------------------------------------------------------ #
    def _start(self) -> "CampaignExecution":
        self._thread.start()
        return self

    def _execute(self) -> None:
        try:
            self._summary = _execute_campaign(self.campaign, self.output_dir, self._writer.append)
        except BaseException as error:  # re-raised by wait()
            self._error = error
        finally:
            self._writer.close()
            self._finished.set()

    # ------------------------------------------------------------------ #
    # Caller-side consumption
    # ------------------------------------------------------------------ #
    def poll(self) -> list[StudyEvent]:
        """Drain and return the events that arrived since the last poll.

        Also dispatches each one to the subscriber and updates
        :meth:`progress` counters — this is the single pump every other
        consumption method goes through.
        """
        events = [record.event for record in self._reader.poll()]
        for event in events:
            self._track(event)
            if self._on_event is not None:
                self._on_event(event)
        return events

    def _track(self, event: StudyEvent) -> None:
        if event.kind == "shard_started":
            self._counts["started"] += 1
        elif event.kind == "shard_finished":
            self._counts["finished"] += 1
            self._counts["evaluations"] += int(event.evaluations or 0)
        elif event.kind == "shard_skipped":
            self._counts["skipped"] += 1

    def done(self) -> bool:
        """True once the campaign body has finished (or failed)."""
        return self._finished.is_set()

    def progress(self) -> dict[str, Any]:
        """Snapshot of the campaign's progress, from the pumped event stream."""
        self.poll()
        counts = dict(self._counts)
        return {
            "cells": counts["total"],
            "done": counts["finished"] + counts["skipped"],
            "executed": counts["finished"],
            "skipped": counts["skipped"],
            "running": max(0, counts["started"] - counts["finished"]),
            "evaluations": counts["evaluations"],
            "finished": self.done(),
        }

    def events(self, poll_interval: float = 0.05) -> Iterator[StudyEvent]:
        """Yield events live until the campaign completes (then drain).

        The iterator ends when the campaign body has finished *and* the
        stream is drained; call :meth:`wait` afterwards for the summary (it
        returns immediately and re-raises any campaign failure).
        """
        while not self._finished.is_set():
            events = self.poll()
            if events:
                yield from events
            else:
                time.sleep(poll_interval)
        yield from self.poll()

    def wait(self, timeout: "float | None" = None, poll_interval: float = 0.05) -> CampaignSummary:
        """Block (pumping events to the subscriber) until the campaign ends.

        Raises ``TimeoutError`` when ``timeout`` seconds pass first, and
        re-raises whatever the campaign body raised (grid-mismatch
        ``ValueError``, a worker crash, ...) once it has finished.  A timeout
        or a subscriber exception does **not** stop the campaign — the cells
        keep running in the background and this method can be called again
        on the same handle to resume pumping and join.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._finished.wait(timeout=poll_interval):
            self.poll()
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"campaign in {self.output_dir} still running after {timeout:.1f}s"
                )
        self._thread.join()
        self.poll()
        if self._error is not None:
            raise self._error
        assert self._summary is not None
        return self._summary


def submit_campaign(
    campaign: CampaignConfig,
    output_dir: "str | Path",
    on_event: EventCallback | None = None,
) -> CampaignExecution:
    """Start a campaign without blocking and return its execution handle.

    The grid runs on a background thread (cells still fan out over the
    process pool when ``max_workers > 1``); the returned
    :class:`CampaignExecution` exposes the live event stream
    (:meth:`~CampaignExecution.events`), progress polling
    (:meth:`~CampaignExecution.progress`) and the blocking join
    (:meth:`~CampaignExecution.wait`).  ``on_event`` subscribes exactly like
    :func:`run_campaign`'s — it is invoked from whichever thread consumes
    the handle.
    """
    return CampaignExecution(campaign, output_dir, on_event=on_event)._start()


def run_campaign(
    campaign: CampaignConfig,
    output_dir: "str | Path",
    on_event: EventCallback | None = None,
) -> CampaignSummary:
    """Run (or resume) a sharded campaign over the full algorithm/problem grid.

    The manifest covering the *entire* grid is written first, then every cell
    without a completed shard (loose or compacted — see
    :func:`repro.experiments.compaction.compact_campaign`) is executed —
    inline when ``max_workers == 1``, otherwise fanned out over a process
    pool.  Each cell writes its own shard atomically on completion, so
    killing the campaign at any point loses at most the in-flight cells;
    re-running with ``resume=True`` (the default) skips every completed cell.

    ``on_event`` streams structured progress instead of silence:
    ``campaign_started``, one ``shard_skipped``/``shard_started`` per cell,
    per-iteration optimiser events from every cell, ``shard_finished`` with
    the cell's evaluation count and routing-cache counters (in completion
    order under a process pool), and ``campaign_finished`` with the folded
    cache summary.  The stream is identical for pooled and inline campaigns:
    every cell appends to the durable ``events.jsonl`` next to the manifest
    and a tailer replays it into ``on_event``.

    This is the blocking front door: ``submit_campaign(...).wait()``.  Use
    :func:`submit_campaign` directly for the non-blocking handle.
    """
    return submit_campaign(campaign, output_dir, on_event=on_event).wait()
