"""Baseline optimiser specs: the five algorithms of the paper self-register here.

Each spec's factory owns the mapping from the shared
:class:`~repro.experiments.config.ExperimentConfig` onto the optimiser's
constructor — exactly the wiring the old ``run_algorithm`` if/elif chain
performed, so registry-dispatched runs are bit-identical to the historical
path.  Hyper-parameter overrides (the ``options`` of
:meth:`~repro.study.registry.OptimizerSpec.create`) are applied on top of the
experiment-derived defaults; ``population_size`` overrides also re-derive the
dependent ``min(..., population_size)`` clamps unless those are overridden
explicitly too.

Registrations pass ``overwrite=True`` so the module stays idempotent: if the
first import fails partway (and the registry resets its loaded flag), a retry
re-registers the already-added specs cleanly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.config import MOELAConfig
from repro.core.moela import MOELA
from repro.experiments.config import EXPERIMENT_CHECKS
from repro.moo.moead import MOEAD
from repro.moo.moo_stage import MOOStage
from repro.moo.moos import MOOS
from repro.moo.nsga2 import NSGA2
from repro.study.registry import OptimizerSpec, register_optimizer

if TYPE_CHECKING:
    from repro.experiments.config import ExperimentConfig
    from repro.moo.problem import Problem

#: Canonical names of the built-in baselines, in the paper's order.  This is
#: what ``repro.experiments.runner.ALGORITHMS`` re-exports.
BUILTIN_ALGORITHMS: tuple[str, ...] = ("MOELA", "MOEA/D", "MOOS", "MOO-STAGE", "NSGA-II")


def _moela_factory(
    problem: "Problem", experiment: "ExperimentConfig", seed: int, **options: Any
) -> MOELA:
    # The ExperimentConfig field's check runs on the override before the clamps compare it.
    population_size = EXPERIMENT_CHECKS["population_size"](
        options.pop("population_size", experiment.population_size), "population_size"
    )
    settings: dict[str, Any] = dict(
        population_size=population_size,
        generations=experiment.moela.generations,
        iter_early=experiment.moela.iter_early,
        n_local=min(experiment.moela.n_local, population_size),
        delta=experiment.moela.delta,
        neighborhood_size=min(experiment.moela.neighborhood_size, population_size),
        replacement_limit=experiment.moela.replacement_limit,
        local_search_steps=experiment.moela.local_search_steps,
        local_search_neighbors=experiment.moela.local_search_neighbors,
        local_search_patience=experiment.moela.local_search_patience,
        max_training_samples=experiment.moela.max_training_samples,
        forest_size=experiment.moela.forest_size,
        forest_depth=experiment.moela.forest_depth,
        seed=seed,
    )
    settings.update(options)
    return MOELA(problem, MOELAConfig(**settings), rng=seed)


def _moead_factory(
    problem: "Problem", experiment: "ExperimentConfig", seed: int, **options: Any
) -> MOEAD:
    # MOEA/D clamps the neighbourhood to the population itself.
    settings: dict[str, Any] = dict(
        population_size=experiment.population_size,
        neighborhood_size=experiment.moela.neighborhood_size,
        delta=experiment.moela.delta,
    )
    settings.update(options)
    return MOEAD(problem, rng=seed, **settings)


def _moos_like_settings(
    experiment: "ExperimentConfig", options: dict[str, Any]
) -> dict[str, Any]:
    settings: dict[str, Any] = dict(
        population_size=experiment.population_size,
        searches_per_iteration=experiment.searches_per_iteration,
        local_search_steps=experiment.local_search_steps,
        neighbors_per_step=experiment.neighbors_per_step,
    )
    settings.update(options)
    return settings


def _moos_factory(
    problem: "Problem", experiment: "ExperimentConfig", seed: int, **options: Any
) -> MOOS:
    return MOOS(problem, rng=seed, **_moos_like_settings(experiment, options))


def _moo_stage_factory(
    problem: "Problem", experiment: "ExperimentConfig", seed: int, **options: Any
) -> MOOStage:
    return MOOStage(problem, rng=seed, **_moos_like_settings(experiment, options))


def _nsga2_factory(
    problem: "Problem", experiment: "ExperimentConfig", seed: int, **options: Any
) -> NSGA2:
    settings: dict[str, Any] = dict(population_size=experiment.population_size)
    settings.update(options)
    return NSGA2(problem, rng=seed, **settings)


_LOCAL_SEARCH_HYPERPARAMETERS = {
    "population_size": "population / archive size N",
    "searches_per_iteration": "local searches launched per iteration",
    "local_search_steps": "greedy-descent steps per local search",
    "neighbors_per_step": "neighbours scored per descent step",
    "early_random_iterations": "iterations with random restart selection",
    "max_training_samples": "cap on the trajectory training set",
    "forest_size": "random-forest size of the learned restart model",
}

register_optimizer(
    OptimizerSpec(
        name="MOELA",
        factory=_moela_factory,
        description="hybrid evolutionary/learning DSE framework (the paper's Algorithm 1)",
        hyperparameters={
            "population_size": "population / decomposition sub-problem count N",
            "generations": "MOELA iterations gen",
            "iter_early": "iterations with random local-search start selection",
            "n_local": "local searches launched per iteration",
            "delta": "neighbourhood-mating probability",
            "neighborhood_size": "decomposition neighbourhood size T",
            "replacement_limit": "max neighbours an offspring may replace",
            "local_search_steps": "greedy-descent steps per Eq.-8 local search",
            "local_search_neighbors": "neighbours scored per descent step",
            "local_search_patience": "descent steps without improvement before stopping",
            "max_training_samples": "cap on the trajectory training set |S_train|",
            "forest_size": "Eval random-forest size",
            "forest_depth": "Eval random-forest depth",
        },
    ),
    overwrite=True,
)

register_optimizer(
    OptimizerSpec(
        name="MOEA/D",
        factory=_moead_factory,
        description="decomposition-based EA baseline (Zhang & Li 2007)",
        hyperparameters={
            "population_size": "population / decomposition sub-problem count N",
            "neighborhood_size": "decomposition neighbourhood size T",
            "delta": "neighbourhood-mating probability",
            "replacement_limit": "max neighbours an offspring may replace",
            "mutation_probability": "post-crossover mutation probability",
        },
    ),
    overwrite=True,
)

register_optimizer(
    OptimizerSpec(
        name="MOOS",
        factory=_moos_factory,
        description="ML-guided local search with learned direction selection (Deshwal 2019)",
        hyperparameters={
            **_LOCAL_SEARCH_HYPERPARAMETERS,
            "num_directions": "candidate scalarisation directions scored per search",
        },
    ),
    overwrite=True,
)

register_optimizer(
    OptimizerSpec(
        name="MOO-STAGE",
        factory=_moo_stage_factory,
        description="STAGE-style learned restart selection with PHV local search (Joardar 2019)",
        hyperparameters=dict(_LOCAL_SEARCH_HYPERPARAMETERS),
    ),
    overwrite=True,
)

register_optimizer(
    OptimizerSpec(
        name="NSGA-II",
        factory=_nsga2_factory,
        aliases=("NSGA2",),
        description="non-dominated-sorting GA baseline (Deb 2002)",
        hyperparameters={
            "population_size": "population size N",
            "crossover_probability": "per-offspring crossover probability",
            "mutation_probability": "per-offspring mutation probability",
        },
    ),
    overwrite=True,
)
