"""Tests for the composite objective evaluator and scenarios."""

import numpy as np
import pytest

from repro.noc.constraints import random_design
from repro.noc.moves import MoveGenerator
from repro.objectives.evaluator import (
    OBJECTIVE_NAMES,
    ObjectiveEvaluator,
    ObjectiveScenario,
    SCENARIO_3OBJ,
    SCENARIO_4OBJ,
    SCENARIO_5OBJ,
    scenario_for,
)
from tests.oracles.objectives import evaluate_reference


class TestScenarios:
    def test_paper_scenarios(self):
        assert scenario_for(3) is SCENARIO_3OBJ
        assert scenario_for(4) is SCENARIO_4OBJ
        assert scenario_for(5) is SCENARIO_5OBJ
        assert SCENARIO_3OBJ.objectives == OBJECTIVE_NAMES[:3]
        assert SCENARIO_5OBJ.num_objectives == 5

    def test_invalid_scenario_count(self):
        with pytest.raises(ValueError):
            scenario_for(2)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveScenario("bad", ("traffic_mean", "bogus"))

    def test_duplicate_objective_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveScenario("bad", ("traffic_mean", "traffic_mean"))

    def test_single_objective_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveScenario("bad", ("traffic_mean",))


class TestEvaluator:
    def test_vector_length_matches_scenario(self, tiny_workload, tiny_designs):
        for count in (3, 4, 5):
            evaluator = ObjectiveEvaluator(tiny_workload, scenario_for(count))
            assert evaluator.evaluate(tiny_designs[0]).shape == (count,)

    def test_prefix_consistency_across_scenarios(self, tiny_workload, tiny_designs):
        design = tiny_designs[0]
        three = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ).evaluate(design)
        five = ObjectiveEvaluator(tiny_workload, SCENARIO_5OBJ).evaluate(design)
        assert np.allclose(three, five[:3])

    def test_all_objectives_nonnegative(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_5OBJ)
        for design in tiny_designs:
            assert np.all(evaluator.evaluate(design) >= 0)

    def test_cache_hits_counted(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ)
        first = evaluator.evaluate(tiny_designs[0])
        second = evaluator.evaluate(tiny_designs[0])
        assert np.allclose(first, second)
        assert evaluator.evaluations == 1
        assert evaluator.cache_hits == 1

    def test_cache_can_be_disabled(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ, cache_size=0)
        evaluator.evaluate(tiny_designs[0])
        evaluator.evaluate(tiny_designs[0])
        assert evaluator.evaluations == 2

    @pytest.mark.parametrize("cache_size", [2.7, "5", True])
    def test_non_integer_cache_size_raises_type_error(self, tiny_workload, cache_size):
        """A string or float is not coerced into a cache bound."""
        with pytest.raises(TypeError):
            ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ, cache_size=cache_size)

    def test_negative_cache_size_raises_value_error(self, tiny_workload):
        """A negative size used to disable the vector cache silently."""
        with pytest.raises(ValueError, match="cache_size"):
            ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ, cache_size=-3)

    def test_integer_like_cache_size_bounds_the_vector_cache(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ, cache_size=np.int64(1))
        assert evaluator.cache_size == 1 and type(evaluator.cache_size) is int
        evaluator.evaluate(tiny_designs[0])
        evaluator.evaluate(tiny_designs[1])
        evaluator.evaluate(tiny_designs[0])
        assert (evaluator.evaluations, evaluator.cache_hits) == (3, 0)

    def test_each_evaluator_owns_a_private_routing_engine(self, tiny_workload, tiny_designs):
        first = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ)
        second = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ)
        assert first.routing_engine is not second.routing_engine
        first.evaluate_many(list(tiny_designs))
        assert first.routing_cache_stats()["requests"] > 0
        assert second.routing_cache_stats()["requests"] == 0
        assert len(second.routing_engine) == 0

    def test_routing_cache_stats_are_the_engine_counters(self, tiny_workload, tiny_designs):
        """No baseline is subtracted: the report is the engine's own snapshot,
        including requests served to callers other than the evaluator."""
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ, cache_size=0)
        evaluator.evaluate_many(list(tiny_designs) + [tiny_designs[0]])
        evaluator.routing_engine.tables(tiny_designs[0])
        stats = evaluator.routing_cache_stats()
        assert stats == {"enabled": True, **evaluator.routing_engine.stats()}
        assert stats["requests"] == len({design.key() for design in tiny_designs}) + 1

    def test_disabled_routing_cache_reports_the_same_keys(self, tiny_workload, tiny_designs):
        enabled = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ)
        disabled = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ, routing_cache=False)
        disabled.evaluate(tiny_designs[0])
        assert disabled.routing_engine is None
        assert disabled.routing_cache_stats().keys() == enabled.routing_cache_stats().keys()
        assert disabled.routing_cache_stats()["requests"] == 0
        assert disabled.routing_cache_stats()["cached_bytes"] == 0

    def test_results_are_readonly_views_protecting_the_cache(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ)
        first = evaluator.evaluate(tiny_designs[0])
        with pytest.raises(ValueError):
            first[0] = -1.0
        assert evaluator.evaluate(tiny_designs[0])[0] >= 0
        # Callers that need a mutable vector copy explicitly.
        mutable = first.copy()
        mutable[0] = -1.0
        assert evaluator.evaluate(tiny_designs[0])[0] >= 0

    def test_evaluate_many_shape(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_4OBJ)
        matrix = evaluator.evaluate_many(list(tiny_designs))
        assert matrix.shape == (len(tiny_designs), 4)

    def test_evaluate_many_partitions_hits_and_misses(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ)
        warm = evaluator.evaluate(tiny_designs[0])
        batch = evaluator.evaluate_many([tiny_designs[0], tiny_designs[1], tiny_designs[1]])
        # One pre-warmed hit, one computed miss reused for its duplicate.
        assert evaluator.evaluations == 2
        assert evaluator.cache_hits == 2
        assert np.array_equal(batch[0], warm)
        assert np.array_equal(batch[1], batch[2])

    def test_evaluate_many_returns_writable_matrix(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ)
        matrix = evaluator.evaluate_many(list(tiny_designs[:2]))
        matrix[0, 0] = -1.0  # callers own the batch matrix
        assert evaluator.evaluate(tiny_designs[0])[0] >= 0

    def test_evaluate_many_empty_batch(self, tiny_workload):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_5OBJ)
        assert evaluator.evaluate_many([]).shape == (0, 5)

    def test_evaluate_many_uncached_counts_match_scalar_loop(self, tiny_workload, tiny_designs):
        # With caching disabled the scalar loop recomputes duplicates, so the
        # batch path must report the same evaluation count (even though it
        # computes the duplicate only once).
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ, cache_size=0)
        evaluator.evaluate_many([tiny_designs[0], tiny_designs[0], tiny_designs[1]])
        assert evaluator.evaluations == 3
        assert evaluator.cache_hits == 0

    def test_reference_path_bypasses_cache(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_5OBJ)
        fast = evaluator.evaluate(tiny_designs[0])
        reference = evaluate_reference(evaluator, tiny_designs[0])
        assert evaluator.evaluations == 1
        np.testing.assert_allclose(fast, reference, rtol=1e-12)

    def test_full_report_contains_all_objectives(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ)
        report = evaluator.full_report(tiny_designs[0])
        for name in OBJECTIVE_NAMES:
            assert name in report
        assert "peak_temperature" in report

    def test_objective_names_property(self, tiny_workload):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_4OBJ)
        assert evaluator.objective_names == SCENARIO_4OBJ.objectives
        assert evaluator.num_objectives == 4


def _brood(workload, parent, size=6, seed=3):
    """Move-annotated children of ``parent`` (placement swaps and rewires)."""
    moves = MoveGenerator(workload.config, workload)
    rng = np.random.default_rng(seed)
    return [moves.random_neighbor(parent, rng) for _ in range(size)]


class TestSerialBatchPath:
    """``evaluate_many`` computes each unique miss once, in this process."""

    def test_duplicates_and_annotated_moves_bitwise(self, tiny_workload):
        """Duplicates collapse to one computation and move-annotated children
        take the engine's repair path; the rows stay bit-identical to fresh
        per-design builds."""
        parent = random_design(tiny_workload.config, 7)
        brood = _brood(tiny_workload, parent)
        batch = [parent] + brood + [brood[0], parent]
        fresh = ObjectiveEvaluator(tiny_workload, scenario_for(5), routing_cache=False)
        expected = np.stack([fresh.evaluate(design) for design in batch])
        evaluator = ObjectiveEvaluator(tiny_workload, scenario_for(5), cache_size=0)
        np.testing.assert_array_equal(evaluator.evaluate_many(batch), expected)
        unique = len({design.key() for design in batch})
        assert evaluator.routing_cache_stats()["requests"] == unique
