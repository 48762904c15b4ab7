"""Optimisation results and per-iteration search history.

Every optimiser records a :class:`SearchSnapshot` per iteration (the current
non-dominated front, evaluation count and wall time).  The experiment harness
recomputes hypervolume histories from these snapshots using a *common*
reference point across algorithms, which is what Tables I/II of the paper
require (speed-up to reach a PHV level, PHV at the stop budget).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.moo.dominance import non_dominated_mask
from repro.moo.hypervolume import hypervolume

#: The paper's convergence criterion (Section V.C): the PHV improved by less
#: than ``CONVERGENCE_TOLERANCE`` (relative) over ``CONVERGENCE_WINDOW``
#: iterations.
CONVERGENCE_WINDOW = 5
CONVERGENCE_TOLERANCE = 0.005


@dataclass(frozen=True)
class SearchSnapshot:
    """State of a search at the end of one iteration."""

    iteration: int
    evaluations: int
    elapsed_seconds: float
    front: np.ndarray

    def __post_init__(self) -> None:
        front = np.atleast_2d(np.asarray(self.front, dtype=np.float64))
        object.__setattr__(self, "front", front)

    def hypervolume(self, reference: np.ndarray) -> float:
        """Hypervolume of the snapshot's front for a given reference point."""
        return hypervolume(self.front, reference)


@dataclass
class OptimizationResult:
    """Final state and history of one optimisation run."""

    algorithm: str
    problem_name: str
    designs: list[Any]
    objectives: np.ndarray
    history: list[SearchSnapshot] = field(default_factory=list)
    evaluations: int = 0
    elapsed_seconds: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.objectives = np.atleast_2d(np.asarray(self.objectives, dtype=np.float64))

    # ------------------------------------------------------------------ #
    # Fronts and hypervolume
    # ------------------------------------------------------------------ #
    @property
    def num_objectives(self) -> int:
        """Number of objectives of the underlying problem."""
        return self.objectives.shape[1]

    def pareto_front(self) -> np.ndarray:
        """Non-dominated subset of the final population objectives."""
        if len(self.objectives) == 0:
            return self.objectives
        return self.objectives[non_dominated_mask(self.objectives)]

    def pareto_designs(self) -> list[Any]:
        """Designs corresponding to :meth:`pareto_front` (same order)."""
        if len(self.objectives) == 0:
            return []
        mask = non_dominated_mask(self.objectives)
        return [design for design, keep in zip(self.designs, mask) if keep]

    def final_front(self) -> np.ndarray:
        """The front reported at the stop budget.

        This is the last history snapshot (the optimiser's archive of
        evaluated non-dominated designs) when a history exists, otherwise the
        non-dominated subset of the final population.
        """
        if self.history:
            return self.history[-1].front
        return self.pareto_front()

    def final_hypervolume(self, reference: np.ndarray) -> float:
        """Hypervolume of :meth:`final_front` for a reference point."""
        return hypervolume(self.final_front(), reference)

    def hypervolume_history(self, reference: np.ndarray) -> np.ndarray:
        """Hypervolume of every snapshot, in iteration order."""
        return np.array([snap.hypervolume(reference) for snap in self.history], dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Effort-to-quality queries (Table I support)
    # ------------------------------------------------------------------ #
    def effort_to_reach(
        self, phv_target: float, reference: np.ndarray, measure: str = "evaluations"
    ) -> float | None:
        """Search effort needed to first reach a hypervolume target.

        ``measure`` selects the effort axis: ``"evaluations"``, ``"seconds"``
        or ``"iterations"``.  Returns ``None`` when the run never reached the
        target.
        """
        if measure not in ("evaluations", "seconds", "iterations"):
            raise ValueError("measure must be 'evaluations', 'seconds' or 'iterations'")
        for snap in self.history:
            if snap.hypervolume(reference) >= phv_target:
                if measure == "evaluations":
                    return float(snap.evaluations)
                if measure == "seconds":
                    return float(snap.elapsed_seconds)
                return float(snap.iteration)
        return None

    def convergence_effort(
        self, reference: np.ndarray, measure: str = "evaluations"
    ) -> tuple[float, float]:
        """Effort and hypervolume at the paper's convergence criterion.

        Convergence is declared at the first snapshot where the hypervolume
        improved by less than :data:`CONVERGENCE_TOLERANCE` (relative) over
        the :data:`CONVERGENCE_WINDOW` previous snapshots; a non-positive
        baseline never triggers.  If the criterion never triggers, the final
        snapshot is used.  Returns ``(effort, hypervolume_at_convergence)``.
        """
        history = self.hypervolume_history(reference)
        if len(history) == 0:
            return 0.0, 0.0
        converged_idx = len(history) - 1
        for idx in range(CONVERGENCE_WINDOW, len(history)):
            baseline = history[idx - CONVERGENCE_WINDOW]
            if baseline <= 0:
                continue
            if (history[idx] - baseline) / baseline < CONVERGENCE_TOLERANCE:
                converged_idx = idx
                break
        snap = self.history[converged_idx]
        if measure == "seconds":
            effort = float(snap.elapsed_seconds)
        elif measure == "iterations":
            effort = float(snap.iteration)
        else:
            effort = float(snap.evaluations)
        return effort, float(history[converged_idx])

    def summary(self) -> dict[str, float]:
        """Compact numeric summary of the run."""
        return {
            "algorithm": self.algorithm,
            "problem": self.problem_name,
            "population": len(self.designs),
            "pareto_size": len(self.pareto_front()),
            "evaluations": self.evaluations,
            "elapsed_seconds": self.elapsed_seconds,
            "iterations": self.history[-1].iteration if self.history else 0,
        }
