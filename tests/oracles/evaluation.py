"""Fresh-evaluator-per-design scoring: the oracle the route cache must match.

:class:`~repro.noc.routing_engine.RoutingEngine` changes *how* an evaluator
obtains routing tables (cache hit, incremental repair, fresh build), never a
single route.  A new :class:`~repro.objectives.evaluator.ObjectiveEvaluator`
starts with an empty engine, so the one design it scores is always a fresh
build.  :class:`FreshEvaluator` keeps the evaluator's objective-vector cache
and counters (so optimisers spend their budgets exactly as before) but
computes every miss on such a new evaluator.

``tests/moo/test_routing_cache_equivalence.py`` and
``tests/experiments/test_aggregate.py`` patch it in as
``repro.core.problem.ObjectiveEvaluator``, so every problem built meanwhile,
campaign cells included, scores through it.
"""

from __future__ import annotations

from functools import partial
from typing import Any

import numpy as np

from repro.noc.design import NocDesign
from repro.objectives.evaluator import SCENARIO_5OBJ, ObjectiveEvaluator, ObjectiveScenario
from repro.workloads.workload import Workload


class FreshEvaluator(ObjectiveEvaluator):
    """An evaluator whose every computed design is scored by a new evaluator.

    ``options`` (the scenario model and seed) go to both evaluators.
    """

    def __init__(
        self,
        workload: Workload,
        scenario: ObjectiveScenario = SCENARIO_5OBJ,
        cache_size: int = 50_000,
        **options: Any,
    ):
        super().__init__(workload, scenario, cache_size=cache_size, **options)
        self._fresh = partial(ObjectiveEvaluator, workload, scenario, cache_size=0, **options)

    def _compute(self, design: NocDesign) -> np.ndarray:
        return self._fresh().evaluate(design)
