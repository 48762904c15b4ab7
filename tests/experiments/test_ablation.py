"""Tests for the MOELA ablation variants."""

import numpy as np
import pytest

from repro.core.config import MOELAConfig
from repro.experiments.ablation import (
    ABLATION_VARIANTS,
    _TchebycheffLSMoela,
    build_variant,
    format_ablation,
    run_ablation,
)
from repro.moo.termination import Budget
from tests.moo.toyproblem import GridAnchorProblem
from tests.oracles.optimizers import PerDesignEvaluation


def _smoke_config():
    return MOELAConfig(
        population_size=8,
        generations=50,
        iter_early=1,
        n_local=2,
        neighborhood_size=4,
        local_search_steps=3,
        local_search_neighbors=2,
        max_training_samples=200,
        forest_size=5,
        forest_depth=5,
    )


class TestVariantConstruction:
    @pytest.mark.parametrize("variant", [v.name for v in ABLATION_VARIANTS])
    def test_every_variant_builds_and_runs(self, variant):
        problem = GridAnchorProblem(2)
        optimizer = build_variant(variant, problem, _smoke_config(), seed=0)
        result = optimizer.run(Budget.iterations(3))
        assert result.objectives.shape[1] == 2
        assert len(result.history) >= 2

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            build_variant("bogus", GridAnchorProblem(2), _smoke_config())

    def test_variant_names_are_distinct(self):
        problem = GridAnchorProblem(2)
        names = {
            build_variant(v.name, problem, _smoke_config()).name for v in ABLATION_VARIANTS
        }
        assert len(names) == len(ABLATION_VARIANTS)

    def test_no_ml_guide_variant_never_trains_guide_selection(self):
        problem = GridAnchorProblem(2)
        optimizer = build_variant("no-ml-guide", problem, _smoke_config(), seed=1)
        optimizer.run(Budget.iterations(4))
        # Start selection stays random even though the model may be trained.
        starts = optimizer._select_start_indices(iteration=100)
        assert len(starts) == 2

    def test_no_ea_variant_only_runs_local_searches(self):
        problem = GridAnchorProblem(2)
        optimizer = build_variant("no-ea", problem, _smoke_config(), seed=2)
        result = optimizer.run(Budget.iterations(3))
        # Without the EA stage, evaluations come only from the initial
        # population and local searches (2 searches x 3 steps x 2 neighbours).
        assert result.evaluations <= 8 + 3 * (2 * 3 * 2)

    def test_tchebycheff_ls_matches_per_design_oracle(self):
        """The Eq.-9 variant's batched local search visits the oracle's designs."""

        class ScalarTchebycheffLSMoela(PerDesignEvaluation, _TchebycheffLSMoela):
            pass

        batched = build_variant("tchebycheff-ls", GridAnchorProblem(3), _smoke_config(), seed=5)
        scalar = ScalarTchebycheffLSMoela(GridAnchorProblem(3), _smoke_config(), rng=5)
        result_b = batched.run(Budget.evaluations(90))
        result_s = scalar.run(Budget.evaluations(90))
        assert result_b.designs == result_s.designs
        np.testing.assert_array_equal(result_b.objectives, result_s.objectives)
        assert result_b.evaluations == result_s.evaluations
        assert batched.problem.eval_count == scalar.problem.eval_count
        assert [snap.evaluations for snap in result_b.history] == [
            snap.evaluations for snap in result_s.history
        ]
        for snap_b, snap_s in zip(result_b.history, result_s.history):
            np.testing.assert_array_equal(snap_b.front, snap_s.front)


class TestRunAblation:
    def test_summary_contains_all_variants(self):
        problem = GridAnchorProblem(2)
        summary = run_ablation(
            problem,
            _smoke_config(),
            Budget.evaluations(80),
            variants=("full", "no-local-search"),
            seed=0,
        )
        assert set(summary) == {"full", "no-local-search"}
        for stats in summary.values():
            assert stats["phv"] >= 0
            assert stats["evaluations"] > 0

    def test_format_ablation_mentions_variants(self):
        problem = GridAnchorProblem(2)
        summary = run_ablation(
            problem, _smoke_config(), Budget.evaluations(60), variants=("full", "no-ea"), seed=1
        )
        text = format_ablation(summary)
        assert "full" in text and "no-ea" in text
        assert "PHV" in text
