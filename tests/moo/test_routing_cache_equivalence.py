"""Seeded route-cache equivalence for every baseline optimiser.

The RoutingEngine changes *how* routing tables are obtained (cache hit,
incremental repair, fresh build) but must never change a single route, so a
seeded run through the problem's cached evaluator has to reproduce the run
that scores every design on a fresh evaluator
(:class:`tests.oracles.evaluation.FreshEvaluator`) exactly: identical design
trajectories, objective matrices (rtol=1e-12) and evaluation counts across
NSGA-II, MOOS, MOO-STAGE and MOELA, plus the MOEA/D baseline.
"""

import numpy as np
import pytest

from repro.core.config import MOELAConfig
from repro.core.moela import MOELA
from repro.core import problem as problem_module
from repro.core.problem import NocDesignProblem
from repro.moo.moead import MOEAD
from repro.moo.moo_stage import MOOStage
from repro.moo.moos import MOOS
from repro.moo.nsga2 import NSGA2
from repro.moo.termination import Budget
from tests.oracles.evaluation import FreshEvaluator
from tests.oracles.optimizers import ScalarNSGA2

SEARCH_SHAPE = dict(searches_per_iteration=2, local_search_steps=3, neighbors_per_step=2)


def make_optimizer(name: str, problem: NocDesignProblem, seed: int):
    if name == "NSGA-II":
        return NSGA2(problem, population_size=6, rng=seed)
    if name == "MOOS":
        return MOOS(problem, population_size=6, rng=seed, **SEARCH_SHAPE)
    if name == "MOO-STAGE":
        return MOOStage(problem, population_size=6, rng=seed, **SEARCH_SHAPE)
    if name == "MOELA":
        return MOELA(problem, MOELAConfig.smoke(), rng=seed)
    if name == "MOEA/D":
        return MOEAD(problem, population_size=6, rng=seed)
    raise ValueError(name)


def run(name: str, workload, seed: int, budget: int):
    problem = NocDesignProblem(workload, scenario=3)
    optimizer = make_optimizer(name, problem, seed)
    result = optimizer.run(Budget.evaluations(budget))
    return result, problem


def run_fresh(name: str, workload, seed: int, budget: int):
    """:func:`run` with every design scored on a new evaluator."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(problem_module, "ObjectiveEvaluator", FreshEvaluator)
        return run(name, workload, seed, budget)


def assert_identical(result_on, result_off):
    assert result_on.designs == result_off.designs
    np.testing.assert_allclose(result_on.objectives, result_off.objectives, rtol=1e-12)
    assert result_on.evaluations == result_off.evaluations
    for snap_on, snap_off in zip(result_on.history, result_off.history):
        np.testing.assert_allclose(snap_on.front, snap_off.front, rtol=1e-12)


BASELINES = ["NSGA-II", "MOOS", "MOO-STAGE", "MOELA"]


class TestRoutingCacheEquivalence:
    @pytest.mark.parametrize("name", BASELINES)
    @pytest.mark.parametrize("seed", [3, 77])
    def test_identical_trajectories(self, name, seed, tiny_workload):
        result_on, problem_on = run(name, tiny_workload, seed, 120)
        result_off, problem_off = run_fresh(name, tiny_workload, seed, 120)
        assert_identical(result_on, result_off)
        # The cached run must actually have exercised the engine...
        stats = problem_on.routing_cache_stats()
        assert stats["enabled"] and stats["requests"] > 0
        assert stats["hits"] + stats["incremental_repairs"] > 0
        # ...and the oracle must have bypassed it entirely.
        assert isinstance(problem_off.evaluator, FreshEvaluator)
        assert problem_off.routing_cache_stats()["requests"] == 0

    def test_moead_baseline_identical(self, tiny_workload):
        result_on, _ = run("MOEA/D", tiny_workload, 9, 120)
        result_off, _ = run_fresh("MOEA/D", tiny_workload, 9, 120)
        assert_identical(result_on, result_off)

    @pytest.mark.parametrize("name", BASELINES)
    def test_results_carry_routing_cache_metadata(self, name, tiny_workload):
        result, problem = run(name, tiny_workload, 5, 60)
        assert result.metadata["routing_cache"] == problem.routing_cache_stats()
        assert result.metadata["routing_cache"]["enabled"]

    def test_scalar_and_batch_paths_share_the_engine(self, tiny_workload):
        """The per-design scalar oracle still routes through the same engine instance."""
        problem = NocDesignProblem(tiny_workload, scenario=3)
        optimizer = ScalarNSGA2(problem, population_size=6, rng=4)
        optimizer.run(Budget.evaluations(80))
        stats = problem.routing_cache_stats()
        assert stats["requests"] > 0 and stats["hits"] > 0
