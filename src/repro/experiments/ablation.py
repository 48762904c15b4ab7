"""Ablation studies of MOELA's design choices (Section IV discussion).

The paper motivates three design decisions that this module isolates:

* **ML guide** — starting points chosen by the learned ``Eval`` model instead
  of at random (``no-ml-guide`` keeps ``iter_early`` at infinity so starts
  stay random forever);
* **local search** — the Eq.-8 greedy descent stage itself (``no-local-search``
  reduces MOELA to its decomposition EA, i.e. MOEA/D);
* **EA stage** — the diversity-preserving evolutionary pass (``no-ea`` runs
  only ML-guided local searches, i.e. a MOO-STAGE-like search);
* **scalarisation** — Eq. 8 (weighted sum) versus Eq. 9 (Tchebycheff) inside
  the local search.

Each variant is runnable through :func:`run_ablation`, which returns the final
PHV of every variant under a shared reference point so their contribution to
MOELA's quality can be ranked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import MOELAConfig
from repro.core.moela import MOELA
from repro.core.problem import NocDesignProblem
from repro.experiments.metrics import common_reference_point
from repro.moo.result import OptimizationResult
from repro.moo.scalarization import tchebycheff
from repro.moo.termination import Budget


@dataclass(frozen=True)
class AblationVariant:
    """One ablation configuration."""

    name: str
    description: str


#: The ablation variants reproduced by ``benchmarks/bench_ablation.py``.
ABLATION_VARIANTS: tuple[AblationVariant, ...] = (
    AblationVariant("full", "MOELA as published (ML guide + Eq.8 local search + EA)"),
    AblationVariant("no-ml-guide", "local-search starts chosen at random every iteration"),
    AblationVariant("no-local-search", "EA only (equivalent to MOEA/D)"),
    AblationVariant("no-ea", "ML-guided local search only (MOO-STAGE-like)"),
    AblationVariant("tchebycheff-ls", "local search minimises Eq. 9 instead of Eq. 8"),
)


class _NoEAMoela(MOELA):
    """MOELA variant whose EA stage is disabled (local search only)."""

    name = "MOELA(no-ea)"

    def step(self, iteration: int, budget: Budget) -> None:  # noqa: D102 - same contract as MOELA.step
        stop = lambda: budget.exhausted(iteration, self.evaluations, self.elapsed())  # noqa: E731
        for index in self._select_start_indices(iteration):
            if stop():
                return
            self._run_local_search(int(index))
        self.eval_model.train(self.training_set)


class _NoGuideMoela(MOELA):
    """MOELA variant that never uses the Eval model for start selection."""

    name = "MOELA(no-ml-guide)"

    def _select_start_indices(self, iteration: int) -> np.ndarray:  # noqa: D102
        n_local = min(self.config.n_local, self.population_size)
        return self.rng.choice(self.population_size, size=n_local, replace=False)


class _TchebycheffLSMoela(MOELA):
    """MOELA variant whose local search descends the Tchebycheff scalarisation (Eq. 9)."""

    name = "MOELA(tchebycheff-ls)"

    def _run_local_search(self, index: int) -> None:  # noqa: D102
        from repro.core.local_search import MoelaSearchOutcome
        from repro.core.ml_guide import TrainingSample
        from repro.moo.local_search import greedy_descent

        weight = self.weights[index]
        reference = self.reference
        scale = self.objective_scale()
        searcher = self.local_search

        def scalar_fn(_design, objectives):
            return tchebycheff(objectives, weight, reference, scale)

        result = greedy_descent(
            self.problem,
            self.designs[index],
            self.objectives[index],
            scalar_fn,
            max_steps=searcher.max_steps,
            neighbors_per_step=searcher.neighbors_per_step,
            patience=searcher.patience,
            rng=self.rng,
            evaluate_many=self.evaluate_batch,
        )
        samples = tuple(
            TrainingSample(
                features=self.problem.features(point.design),
                weight=np.asarray(weight, dtype=np.float64).copy(),
                outcome=result.best_value,
            )
            for point in result.trajectory
        )
        outcome = MoelaSearchOutcome(
            design=result.best_design,
            objectives=result.best_objectives,
            value=result.best_value,
            improvement=result.improvement,
            samples=samples,
            evaluations=result.evaluations,
        )
        self.reference = np.minimum(self.reference, outcome.objectives)
        self._update_population(outcome.design, outcome.objectives, index)
        self._extend_training_set(outcome.samples)


def build_variant(
    variant: str, problem: NocDesignProblem, config: MOELAConfig, seed: int = 0
):
    """Instantiate the optimiser implementing one ablation variant."""
    if variant == "full":
        return MOELA(problem, config, rng=seed)
    if variant == "no-ml-guide":
        return _NoGuideMoela(problem, config, rng=seed)
    if variant == "no-local-search":
        ea_only = replace(config, n_local=1, local_search_steps=1, local_search_neighbors=1, iter_early=10**9)
        optimizer = MOELA(problem, ea_only, rng=seed)
        optimizer.name = "MOELA(no-local-search)"
        return optimizer
    if variant == "no-ea":
        return _NoEAMoela(problem, config, rng=seed)
    if variant == "tchebycheff-ls":
        return _TchebycheffLSMoela(problem, config, rng=seed)
    raise ValueError(
        f"unknown ablation variant {variant!r}; known: {[v.name for v in ABLATION_VARIANTS]}"
    )


def run_ablation(
    problem: NocDesignProblem,
    config: MOELAConfig,
    budget: Budget,
    variants: tuple[str, ...] = tuple(v.name for v in ABLATION_VARIANTS),
    seed: int = 0,
) -> dict[str, dict[str, float]]:
    """Run the requested ablation variants on one problem and summarise them.

    Returns a mapping ``variant -> {"phv": ..., "evaluations": ..., "seconds": ...}``
    where PHV uses a reference point shared by all variants.
    """
    results: dict[str, OptimizationResult] = {}
    for variant in variants:
        optimizer = build_variant(variant, problem, config, seed=seed)
        results[variant] = optimizer.run(budget)
    reference = common_reference_point(list(results.values()))
    summary: dict[str, dict[str, float]] = {}
    for variant, result in results.items():
        summary[variant] = {
            "phv": result.final_hypervolume(reference),
            "evaluations": float(result.evaluations),
            "seconds": result.elapsed_seconds,
            "pareto_size": float(len(result.pareto_front())),
        }
    return summary


def format_ablation(summary: dict[str, dict[str, float]]) -> str:
    """Render an ablation summary as a text table (PHV relative to the full variant)."""
    full_phv = summary.get("full", {}).get("phv", 0.0)
    lines = ["Ablation of MOELA design choices", ""]
    header = f"{'Variant':<22}{'PHV':>14}{'PHV vs full':>14}{'Evals':>10}{'Front':>8}"
    lines.append(header)
    for variant, stats in summary.items():
        relative = stats["phv"] / full_phv if full_phv > 0 else float("nan")
        lines.append(
            f"{variant:<22}{stats['phv']:>14.4g}{relative:>14.2%}{stats['evaluations']:>10.0f}"
            f"{stats['pareto_size']:>8.0f}"
        )
    return "\n".join(lines)
