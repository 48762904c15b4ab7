"""The 3D NoC heterogeneous manycore design problem as a :class:`~repro.moo.problem.Problem`.

This class binds together the platform model, a workload, the objective
scenario and the design-space operators (random generation, neighbourhood
moves, crossover, mutation), exposing the interface every optimiser in this
package consumes.
"""

from __future__ import annotations

import numpy as np

from repro.core.features import DesignFeaturizer
from repro.moo.problem import Problem
from repro.noc.constraints import ConstraintChecker, random_design
from repro.noc.crossover import crossover
from repro.noc.design import NocDesign
from repro.noc.moves import MoveGenerator, mutate
from repro.noc.platform import PlatformConfig
from repro.objectives.evaluator import ObjectiveEvaluator, ObjectiveScenario, scenario_for
from repro.scenarios.models import ScenarioModel
from repro.scenarios.registry import parse_scenario
from repro.utils.rng import RngLike, ensure_rng
from repro.workloads.workload import Workload


class NocDesignProblem(Problem):
    """Multi-objective 3D NoC design problem (Section III of the paper).

    Parameters
    ----------
    workload:
        Application workload (traffic and power) on a platform configuration.
    scenario:
        Objective scenario; an int (3, 4 or 5) selects the paper's scenarios,
        or pass an :class:`ObjectiveScenario` directly.
    cache_size:
        Size of the objective-vector memoisation cache.
    mutation_strength:
        Number of random moves applied by :meth:`mutate`.
    scenario_model:
        Optional fault/scenario model (a :class:`~repro.scenarios.ScenarioModel`
        or its canonical key, e.g. ``"link_failure(k=1,mode=remove)"``)
        applied by the evaluator before scoring.  Moves, crossover and
        features stay on the nominal workload: the search explores the
        nominal design space while evaluation answers for the degraded one.
    scenario_seed:
        Seed for the scenario model's deterministic streams.
    """

    def __init__(
        self,
        workload: Workload,
        scenario: "int | ObjectiveScenario" = 5,
        cache_size: int = 50_000,
        mutation_strength: int = 1,
        scenario_model: "ScenarioModel | str | None" = None,
        scenario_seed: int = 0,
    ):
        if isinstance(scenario, int):
            scenario = scenario_for(scenario)
        if scenario_model is not None:
            scenario_model = parse_scenario(scenario_model)
            if scenario_model.is_identity:
                scenario_model = None
        self.workload = workload
        self.config: PlatformConfig = workload.config
        self.scenario = scenario
        self.scenario_model = scenario_model
        self.evaluator = ObjectiveEvaluator(
            workload,
            scenario,
            cache_size=cache_size,
            scenario_model=scenario_model,
            scenario_seed=scenario_seed,
        )
        self.moves = MoveGenerator(self.config, workload)
        self.checker = ConstraintChecker(self.config)
        self.featurizer = DesignFeaturizer(self.config, workload)
        self.mutation_strength = mutation_strength

    # ------------------------------------------------------------------ #
    # Problem interface
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Readable identifier, e.g. ``"BFS/5-obj/paper-4x4x4"``.

        A non-identity scenario model appends its canonical key, e.g.
        ``"BFS/5-obj/paper-4x4x4/link_failure(k=1,mode=remove)"``; the
        identity case is byte-identical to the historical name.
        """
        base = f"{self.workload.name}/{self.scenario.name}/{self.config.name}"
        if self.scenario_model is not None:
            return f"{base}/{self.scenario_model.key}"
        return base

    @property
    def num_objectives(self) -> int:
        return self.scenario.num_objectives

    @property
    def objective_names(self) -> tuple[str, ...]:
        return self.scenario.objectives

    def evaluate(self, design: NocDesign) -> np.ndarray:
        return self.evaluator.evaluate(design)

    def evaluate_many(self, designs: list[NocDesign]) -> np.ndarray:
        return self.evaluator.evaluate_many(designs)

    def random_design(self, rng: RngLike = None) -> NocDesign:
        return random_design(self.config, ensure_rng(rng))

    def neighbor(self, design: NocDesign, rng: RngLike = None) -> NocDesign:
        return self.moves.random_neighbor(design, ensure_rng(rng))

    def crossover(self, parent_a: NocDesign, parent_b: NocDesign, rng: RngLike = None) -> NocDesign:
        return crossover(parent_a, parent_b, self.config, ensure_rng(rng))

    def mutate(self, design: NocDesign, rng: RngLike = None) -> NocDesign:
        if self.mutation_strength < 1:
            return design
        return mutate(
            design,
            self.config,
            ensure_rng(rng),
            strength=self.mutation_strength,
            generator=self.moves,
        )

    def design_key(self, design: NocDesign):
        return design.key()

    def features(self, design: NocDesign) -> np.ndarray:
        return self.featurizer.features(design)

    @property
    def evaluations(self) -> int:
        """Unique (non-cached) objective evaluations performed so far."""
        return self.evaluator.evaluations

    def routing_cache_stats(self) -> dict[str, "int | float | bool"]:
        """Routing-engine hit/miss/incremental-repair counters of the evaluator."""
        return self.evaluator.routing_cache_stats()

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def is_feasible(self, design: NocDesign) -> bool:
        """True when the design satisfies every Section III constraint."""
        return self.checker.is_feasible(design)

    def full_report(self, design: NocDesign) -> dict[str, float]:
        """All five objective values plus the peak temperature of a design."""
        return self.evaluator.full_report(design)
