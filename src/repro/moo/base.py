"""Shared machinery for population-based optimisers.

Provides population bookkeeping, snapshot recording and ideal-point tracking
so the individual algorithms (MOEA/D, NSGA-II, MOOS, MOO-STAGE, MOELA) only
implement their own iteration logic.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.moo.archive import ParetoArchive
from repro.moo.dominance import non_dominated_mask
from repro.moo.problem import Problem
from repro.moo.result import OptimizationResult, SearchSnapshot
from repro.moo.termination import Budget, StopWatch
from repro.study.events import EventCallback, StudyEvent
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_count


class PopulationOptimizer:
    """Base class for optimisers that evolve a fixed-size population.

    Besides the working population, every optimiser maintains a bounded
    archive of the non-dominated designs it has *evaluated* (the standard
    offline-performance protocol).  History snapshots and the reported "front
    at the stop budget" come from this archive, so PHV comparisons between
    algorithms measure search quality under exactly the same bookkeeping.

    Broods of designs (initial populations, offspring, local-search
    neighbours) are scored through one :meth:`evaluate_batch` call.  Every
    brood is generated before any of it is evaluated, so a per-design scoring
    loop would consume the RNG identically and visit the same designs; the
    scalar oracles in ``tests/oracles/optimizers.py`` pin that contract.
    """

    name = "base"

    def __init__(
        self,
        problem: Problem,
        population_size: int = 50,
        rng: RngLike = None,
    ):
        self.problem = problem
        self.population_size = require_count(population_size, "population_size", 2)
        self.rng = ensure_rng(rng)
        self.designs: list[Any] = []
        self.objectives: np.ndarray = np.empty((0, problem.num_objectives))
        self.archive = ParetoArchive(max_size=self.population_size)
        self.evaluations = 0
        self.history: list[SearchSnapshot] = []
        self._watch: StopWatch | None = None
        # Progress streaming (see repro.study.events): when set, run() emits a
        # StudyEvent after initialisation and after every iteration.  Events
        # are built from read-only counters after all RNG consumption, so a
        # subscribed run stays bit-identical to a silent one.
        self.on_event: EventCallback | None = None
        self.event_context: dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # Template method
    # ------------------------------------------------------------------ #
    def run(self, budget: Budget) -> OptimizationResult:
        """Run the optimiser until the budget is exhausted."""
        self._watch = StopWatch()
        self.evaluations = 0
        self.history = []
        self.initialize()
        self.record_snapshot(iteration=0)
        self.emit_event("run_started", iteration=0)
        iteration = 0
        while not budget.exhausted(iteration, self.evaluations, self._watch.elapsed()):
            iteration += 1
            self.step(iteration, budget)
            self.record_snapshot(iteration)
            self.emit_event("iteration", iteration=iteration)
        result = self.build_result()
        self.emit_event("run_finished", iteration=iteration)
        return result

    def initialize(self) -> None:
        """Create and evaluate the initial population (random by default).

        The whole initial population is scored through one
        :meth:`evaluate_batch` call so problems with a batch evaluation path
        (shared routing reuse, cache partitioning) are used at full effect.
        """
        self.designs = [self.problem.random_design(self.rng) for _ in range(self.population_size)]
        self.objectives = self.evaluate_batch(self.designs)

    def step(self, iteration: int, budget: Budget) -> None:
        """One iteration of the algorithm (must be overridden)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def evaluate(self, design: Any) -> np.ndarray:
        """Evaluate a design, count the evaluation and archive it if non-dominated."""
        self.evaluations += 1
        objectives = np.asarray(self.problem.evaluate(design), dtype=np.float64)
        self.archive.add(design, objectives)
        return objectives

    def evaluate_batch(self, designs: list[Any]) -> np.ndarray:
        """Batch counterpart of :meth:`evaluate` for population-scale scoring.

        Routes through :meth:`Problem.evaluate_many` (one call for the whole
        batch), counts every design as one evaluation, and archives each
        result in order, exactly as the scalar wrapper does — so the archive
        (and therefore every downstream front/PHV computation) evolves
        identically whether a brood is scored scalar-by-scalar or in one call.

        Budget-aware contract: a batch call advances :attr:`evaluations` by
        ``len(designs)`` at once, so callers that must respect an evaluation
        budget size their broods with :meth:`brood_limit` *before* calling —
        :class:`~repro.moo.termination.Budget.exhausted` then fires at exactly
        the same evaluation count as a per-design loop that checks between
        single evaluations.
        """
        if not designs:
            return np.empty((0, self.problem.num_objectives), dtype=np.float64)
        objectives = np.asarray(self.problem.evaluate_many(designs), dtype=np.float64)
        self.evaluations += len(designs)
        for design, vector in zip(designs, objectives):
            self.archive.add(design, vector)
        return objectives

    def brood_limit(self, budget: Budget, requested: int) -> int:
        """Largest brood size the evaluation budget still allows.

        Returns ``requested`` when the budget has no evaluation limit.  This is
        the budget-aware half of the :meth:`evaluate_batch` contract: trimming
        the brood *before* the batch call makes the batched path stop at
        exactly the evaluation count where a per-design budget check would
        have stopped (no overshoot from scoring a whole brood).
        """
        remaining = budget.remaining_evaluations(self.evaluations)
        return requested if remaining is None else min(requested, remaining)

    def elapsed(self) -> float:
        """Seconds since :meth:`run` started."""
        return self._watch.elapsed() if self._watch is not None else 0.0

    def emit_event(self, kind: str, iteration: int, payload: "dict[str, Any] | None" = None) -> None:
        """Send one :class:`~repro.study.events.StudyEvent` to the subscriber.

        No-op without a subscriber.  Emission is observation-only: the event
        is assembled from the archive/evaluation counters *after* the
        iteration's RNG consumption, so subscribing cannot change a seeded
        trajectory.  ``event_context`` (set by the dispatch layer) supplies
        the run identity; sensible defaults are derived from the optimiser
        and problem when it is empty.
        """
        if self.on_event is None:
            return
        # record_snapshot already computed the archive front for this
        # iteration; reuse it instead of paying the non-dominated sort twice.
        front_size = len(self.history[-1].front) if self.history else len(self.current_front())
        data: dict[str, Any] = {"front_size": int(front_size)}
        stats_fn = getattr(self.problem, "routing_cache_stats", None)
        if callable(stats_fn):
            data["routing_cache"] = stats_fn()
        if payload:
            data.update(payload)
        context = self.event_context
        self.on_event(
            StudyEvent(
                kind=kind,
                algorithm=context.get("algorithm", self.name),
                application=context.get(
                    "application", getattr(getattr(self.problem, "workload", None), "name", None)
                ),
                num_objectives=context.get("num_objectives", self.problem.num_objectives),
                iteration=iteration,
                evaluations=int(self.evaluations),
                elapsed_seconds=float(self.elapsed()),
                payload=data,
            )
        )

    def current_front(self) -> np.ndarray:
        """Non-dominated front of the designs evaluated so far (archive-based)."""
        if len(self.archive):
            return self.archive.objectives
        if len(self.objectives) == 0:
            return self.objectives
        return self.objectives[non_dominated_mask(self.objectives)]

    def ideal_point(self) -> np.ndarray:
        """Componentwise minimum of the current population objectives."""
        return self.objectives.min(axis=0)

    def record_snapshot(self, iteration: int) -> None:
        """Append a history snapshot of the current front."""
        self.history.append(
            SearchSnapshot(
                iteration=iteration,
                evaluations=self.evaluations,
                elapsed_seconds=self.elapsed(),
                front=self.current_front().copy(),
            )
        )

    def build_result(self) -> OptimizationResult:
        """Assemble the :class:`OptimizationResult` for the finished run.

        ``designs``/``objectives`` are the final population (the ``N`` designs
        the paper's Algorithm 1 returns); the archived non-dominated set is
        attached as ``metadata["archive_designs"]`` and backs the last history
        snapshot.
        """
        result = OptimizationResult(
            algorithm=self.name,
            problem_name=getattr(self.problem, "name", type(self.problem).__name__),
            designs=list(self.designs),
            objectives=self.objectives.copy(),
            history=list(self.history),
            evaluations=self.evaluations,
            elapsed_seconds=self.elapsed(),
        )
        result.metadata["archive_designs"] = self.archive.designs
        result.metadata["archive_objectives"] = self.archive.objectives
        # Thread the problem's routing-cache counters (RoutingEngine hits /
        # misses / incremental repairs) into the result so campaign shards can
        # record them without holding on to the problem instance.
        stats_fn = getattr(self.problem, "routing_cache_stats", None)
        if callable(stats_fn):
            result.metadata["routing_cache"] = stats_fn()
        return result
