"""Seeded batch-vs-scalar equivalence for the baseline optimisers.

Every baseline (NSGA-II, MOOS, MOO-STAGE) scores its broods through one
``evaluate_many`` batch call.  The pre-batch scalar implementations (one
``evaluate`` call per design) live on as oracles in
``tests/oracles/optimizers.py``.  These tests pin the contract that makes the
vectorised engine trustworthy: with the same RNG seed, each optimizer and its
scalar oracle must produce *identical* design trajectories, objective matrices
and evaluation counts — including when the evaluation budget exhausts in the
middle of a brood.
"""

import numpy as np
import pytest

from repro.moo.moo_stage import MOOStage
from repro.moo.moos import MOOS
from repro.moo.nsga2 import NSGA2
from repro.moo.termination import Budget
from tests.moo.toyproblem import GridAnchorProblem
from tests.oracles.optimizers import ScalarMOELA, ScalarMOOS, ScalarMOOStage, ScalarNSGA2

#: Local-search shapes for the two STAGE-style baselines, small enough that a
#: run takes milliseconds but large enough that model training kicks in.
SEARCH_SHAPE = dict(searches_per_iteration=2, local_search_steps=3, neighbors_per_step=3)

#: The scalar oracle of each batched optimizer.
SCALAR = {NSGA2: ScalarNSGA2, MOOS: ScalarMOOS, MOOStage: ScalarMOOStage}


def make_optimizer(cls, batched: bool, num_objectives: int = 3, seed: int = 42):
    kwargs = {} if cls is NSGA2 else dict(SEARCH_SHAPE)
    cls = cls if batched else SCALAR[cls]
    return cls(GridAnchorProblem(num_objectives), population_size=8, rng=seed, **kwargs)


def run_pair(cls, budget: Budget, num_objectives: int = 3, seed: int = 42):
    batched = make_optimizer(cls, True, num_objectives, seed)
    scalar = make_optimizer(cls, False, num_objectives, seed)
    return batched.run(budget), scalar.run(budget), batched, scalar


def assert_trajectories_identical(result_batched, result_scalar):
    assert result_batched.designs == result_scalar.designs
    np.testing.assert_allclose(result_batched.objectives, result_scalar.objectives, rtol=1e-12)
    assert result_batched.evaluations == result_scalar.evaluations
    assert [snap.evaluations for snap in result_batched.history] == [
        snap.evaluations for snap in result_scalar.history
    ]
    for snap_b, snap_s in zip(result_batched.history, result_scalar.history):
        np.testing.assert_allclose(snap_b.front, snap_s.front, rtol=1e-12)


class TestSeededEquivalence:
    @pytest.mark.parametrize("cls", [NSGA2, MOOS, MOOStage])
    @pytest.mark.parametrize("seed", [0, 42, 1234])
    def test_iteration_budget(self, cls, seed):
        result_b, result_s, _, _ = run_pair(cls, Budget.iterations(6), seed=seed)
        assert_trajectories_identical(result_b, result_s)

    @pytest.mark.parametrize("cls", [NSGA2, MOOS, MOOStage])
    def test_evaluation_budget(self, cls):
        result_b, result_s, _, _ = run_pair(cls, Budget.evaluations(95))
        assert_trajectories_identical(result_b, result_s)

    @pytest.mark.parametrize("cls", [NSGA2, MOOS, MOOStage])
    def test_two_objectives(self, cls):
        result_b, result_s, _, _ = run_pair(cls, Budget.iterations(5), num_objectives=2)
        assert_trajectories_identical(result_b, result_s)

    @pytest.mark.parametrize("cls", [NSGA2, MOOS, MOOStage])
    def test_archives_identical(self, cls):
        _, _, batched, scalar = run_pair(cls, Budget.iterations(5))
        assert batched.archive.designs == scalar.archive.designs
        np.testing.assert_allclose(
            batched.archive.objectives, scalar.archive.objectives, rtol=1e-12
        )


class TestBudgetExhaustionMidBrood:
    def test_nsga2_trims_final_brood(self):
        """A budget that dies mid-generation trims the brood to the exact remainder."""
        # pop 8: init consumes 8, each full brood 8 more; 35 = 8 + 3*8 + 3, so
        # the fourth generation may only mate 3 children.
        result_b, result_s, _, _ = run_pair(NSGA2, Budget.evaluations(35))
        assert_trajectories_identical(result_b, result_s)
        assert result_b.evaluations == 35

    @pytest.mark.parametrize("cls", [MOOS, MOOStage])
    @pytest.mark.parametrize("budget", [29, 34, 50])
    def test_stage_baselines_stop_at_same_count(self, cls, budget):
        """Budgets landing mid-local-search stop both paths at the same count.

        The STAGE-style baselines check the budget between local-search steps
        (not inside a neighbour brood), so both paths may overshoot by at most
        ``neighbors_per_step - 1`` — but always by exactly the same amount.
        """
        result_b, result_s, _, _ = run_pair(cls, Budget.evaluations(budget))
        assert_trajectories_identical(result_b, result_s)

    @pytest.mark.parametrize("budget", [9, 33, 41])
    def test_nsga2_odd_budgets(self, budget):
        result_b, result_s, _, _ = run_pair(NSGA2, Budget.evaluations(budget))
        assert_trajectories_identical(result_b, result_s)


class TestEvaluationAccounting:
    """Regression tests pinning per-iteration evaluation counts.

    ``Budget.exhausted`` must fire at exactly the same evaluation count under
    scalar and batched scoring; these literals are the contract.
    """

    def test_nsga2_counts_per_iteration_are_pinned(self):
        expected = [8, 16, 24, 32, 35]  # init + three full broods + trimmed brood
        for batched in (True, False):
            optimizer = make_optimizer(NSGA2, batched)
            result = optimizer.run(Budget.evaluations(35))
            assert [snap.evaluations for snap in result.history] == expected
            assert result.evaluations == 35

    def test_nsga2_never_overshoots_evaluation_budget(self):
        for batched in (True, False):
            problem = GridAnchorProblem(3)
            cls = NSGA2 if batched else ScalarNSGA2
            optimizer = cls(problem, population_size=8, rng=5)
            result = optimizer.run(Budget.evaluations(50))
            assert result.evaluations == 50
            assert problem.eval_count == 50

    @pytest.mark.parametrize("cls", [MOOS, MOOStage])
    def test_stage_counts_match_problem_counter(self, cls):
        """The optimiser's evaluation counter and the problem's agree exactly."""
        for batched in (True, False):
            optimizer = make_optimizer(cls, batched)
            result = optimizer.run(Budget.evaluations(60))
            assert result.evaluations == optimizer.problem.eval_count

    def test_brood_limit_contract(self):
        optimizer = make_optimizer(NSGA2, True)
        optimizer.evaluations = 30
        assert optimizer.brood_limit(Budget.evaluations(35), 8) == 5
        assert optimizer.brood_limit(Budget.evaluations(30), 8) == 0
        assert optimizer.brood_limit(Budget.iterations(3), 8) == 8


class TestMoelaEquivalence:
    """MOELA's hybrid loop (EA brood + local searches) matches its scalar oracle too."""

    def test_seeded_batch_vs_scalar(self):
        from repro.core.config import MOELAConfig
        from repro.core.moela import MOELA

        results = []
        for cls in (MOELA, ScalarMOELA):
            optimizer = cls(GridAnchorProblem(3), MOELAConfig.smoke(), rng=42)
            results.append(optimizer.run(Budget.evaluations(90)))
        assert_trajectories_identical(*results)


class TestNocProblemEquivalence:
    """Batched NSGA-II on the real NoC problem matches its scalar oracle.

    This closes the loop end to end: the vectorised ``evaluate_many`` engine
    (matrix products over sparse pair-link incidence) drives the batched
    optimiser to the same trajectory the scalar per-design path produces.
    """

    def test_nsga2_on_noc_problem(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import make_problem

        experiment = ExperimentConfig.smoke()
        results = []
        for cls in (NSGA2, ScalarNSGA2):
            problem = make_problem(experiment, "BFS", 3)
            optimizer = cls(problem, population_size=6, rng=9)
            results.append(optimizer.run(Budget.evaluations(45)))
        batched, scalar = results
        assert [d.key() for d in batched.designs] == [d.key() for d in scalar.designs]
        np.testing.assert_allclose(batched.objectives, scalar.objectives, rtol=1e-12)
        assert batched.evaluations == scalar.evaluations == 45
