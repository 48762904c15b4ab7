"""Tests for the cross-design route cache (RoutingEngine) and move deltas."""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import make_problem, run_algorithm
from repro.moo.termination import Budget
from repro.noc.constraints import random_design
from repro.noc.design import MoveDelta, NocDesign, annotate_move, move_delta_of
from repro.noc.moves import MoveGenerator, mutate
from repro.noc.platform import PlatformConfig
from repro.noc.crossover import crossover
from repro.noc.routing import RoutingTables
from repro.noc.routing_engine import RoutingEngine
from repro.objectives.evaluator import ObjectiveEvaluator, scenario_for
from repro.workloads.registry import get_workload
from tests.golden.test_front_fingerprints import front_fingerprint
from tests.oracles.routing import router_ports, tree_link_loads


def assert_tables_identical(left: RoutingTables, right: RoutingTables) -> None:
    """Full structural equality: distances, routes, pair tables."""
    np.testing.assert_array_equal(left._predecessors, right._predecessors)
    assert np.allclose(left._distance, right._distance, rtol=0, atol=1e-9)
    weights = np.random.default_rng(0).random(left.num_tiles**2)
    assert left.link_loads(weights).tobytes() == right.link_loads(weights).tobytes()
    assert left.link_loads(weights).tobytes() == tree_link_loads(left, weights).tobytes()
    for attr in ("_tree_pairs", "_tree_parents", "_tree_links", "_level_starts"):
        np.testing.assert_array_equal(getattr(left, attr), getattr(right, attr))
    np.testing.assert_array_equal(left.pair_router_ports(), right.pair_router_ports())
    np.testing.assert_array_equal(left.pair_router_ports(), router_ports(left))
    np.testing.assert_array_equal(left.pair_hops(), right.pair_hops())
    np.testing.assert_array_equal(left.pair_lengths(), right.pair_lengths())
    np.testing.assert_array_equal(left.reachable_pairs(), right.reachable_pairs())


class TestMoveDeltas:
    def test_placement_moves_annotate_placement_only_deltas(self, small_config, rng):
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        swapped = moves.swap_pe(design, rng)
        delta = move_delta_of(swapped)
        assert delta is not None
        assert delta.kind == "swap_pe"
        assert not delta.links_added and not delta.links_removed
        assert delta.tiles_swapped is not None
        assert delta.parent_links == design.links

    def test_rewire_annotates_link_delta(self, small_config, rng):
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        rewired = moves.rewire_link(design, rng)
        assert rewired is not None
        delta = move_delta_of(rewired)
        assert delta.kind == "rewire_link"
        assert len(delta.links_added) == len(delta.links_removed) == 1
        assert set(delta.links_removed) == set(design.links) - set(rewired.links)
        assert set(delta.links_added) == set(rewired.links) - set(design.links)

    def test_crossover_annotates_against_closest_parent(self, small_config, rng):
        parent_a = random_design(small_config, rng)
        parent_b = random_design(small_config, rng)
        child = crossover(parent_a, parent_b, small_config, rng)
        delta = move_delta_of(child)
        assert delta is not None and delta.kind == "crossover"
        assert delta.parent_links in (parent_a.links, parent_b.links)
        parent_set = set(delta.parent_links)
        assert set(delta.links_added) == set(child.links) - parent_set
        assert set(delta.links_removed) == parent_set - set(child.links)

    def test_multi_move_mutation_composes_delta_against_original(self, small_config, rng):
        design = random_design(small_config, rng)
        mutated = mutate(design, small_config, rng, strength=3)
        delta = move_delta_of(mutated)
        assert delta is not None
        assert delta.parent_links == design.links

    def test_annotation_does_not_change_identity(self, small_config, rng):
        design = random_design(small_config, rng)
        twin = NocDesign(placement=design.placement, links=design.links)
        annotated = annotate_move(twin, MoveDelta(kind="test", parent_links=design.links))
        assert annotated == design
        assert hash(annotated) == hash(design)
        assert annotated.key() == design.key()


class TestRoutingEngine:
    def test_same_link_set_is_a_hit_across_placements(self, small_config, rng):
        engine = RoutingEngine(small_config.grid)
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        first = engine.tables(design)
        swapped = moves.swap_pe(design, rng)
        second = engine.tables(swapped)
        assert second is first  # shared read-only instance, no rebuild
        assert engine.stats() == {
            "hits": 1,
            "misses": 1,
            "incremental_repairs": 0,
            "requests": 2,
            "hit_rate": 0.5,
            "cached_topologies": 1,
            "cached_bytes": first.nbytes,
        }

    def test_link_move_repairs_incrementally_and_matches_fresh(self, small_config, rng):
        engine = RoutingEngine(small_config.grid)
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        engine.tables(design)
        rewired = moves.rewire_link(design, rng)
        assert rewired is not None
        repaired = engine.tables(rewired)
        assert engine.incremental_repairs == 1
        assert_tables_identical(repaired, RoutingTables(rewired, small_config.grid))

    def test_unknown_parent_falls_back_to_fresh_build(self, small_config, rng):
        engine = RoutingEngine(small_config.grid)
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        rewired = moves.rewire_link(design, rng)
        assert rewired is not None
        tables = engine.tables(rewired)  # parent never seen by this engine
        assert engine.misses == 1 and engine.incremental_repairs == 0
        assert_tables_identical(tables, RoutingTables(rewired, small_config.grid))

    def test_stale_delta_hint_is_harmless(self, small_config, rng):
        """A wrong annotation may cost a rebuild but never a wrong route."""
        engine = RoutingEngine(small_config.grid)
        design_a = random_design(small_config, rng)
        design_b = random_design(small_config, rng)
        engine.tables(design_a)
        # Lie: claim design_b is one move away from design_a.
        forged = annotate_move(
            NocDesign(placement=design_b.placement, links=design_b.links),
            MoveDelta(kind="forged", parent_links=design_a.links),
        )
        tables = engine.tables(forged)
        assert_tables_identical(tables, RoutingTables(design_b, small_config.grid))

    def test_lru_eviction_bounds_the_table_count(self, small_config):
        designs = [random_design(small_config, seed) for seed in range(4)]
        engine = RoutingEngine(small_config.grid, max_tables=2)
        kept = [engine.tables(design) for design in designs][-2:]
        assert len(engine) == 2
        assert engine.stats()["cached_bytes"] == sum(tables.nbytes for tables in kept)
        engine.tables(designs[-1])
        assert (engine.hits, engine.misses) == (1, 4)
        engine.tables(designs[0])
        assert (engine.hits, engine.misses) == (1, 5)
        # Re-requesting the evicted design evicted the least recently used one.
        assert len(engine) == 2
        engine.tables(designs[-1])
        assert (engine.hits, engine.misses) == (2, 5)

    def test_hit_refreshes_recency(self, small_config):
        designs = [random_design(small_config, seed) for seed in range(3)]
        engine = RoutingEngine(small_config.grid, max_tables=2)
        engine.tables(designs[0])
        engine.tables(designs[1])
        engine.tables(designs[0])  # hit: designs[1] is now least recently used
        engine.tables(designs[2])
        engine.tables(designs[0])
        assert (engine.hits, engine.misses) == (2, 3)
        engine.tables(designs[1])
        assert (engine.hits, engine.misses) == (2, 4)

    def test_zero_repair_fraction_disables_repairs(self, small_config, rng):
        engine = RoutingEngine(small_config.grid, max_repair_fraction=0.0)
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        engine.tables(design)
        rewired = moves.rewire_link(design, rng)
        engine.tables(rewired)
        assert engine.incremental_repairs == 0
        assert engine.misses == 2

    def test_invalid_parameters_rejected(self, small_config):
        with pytest.raises(ValueError):
            RoutingEngine(small_config.grid, max_tables=0)
        with pytest.raises(ValueError):
            RoutingEngine(small_config.grid, max_repair_fraction=1.5)

    @pytest.mark.parametrize("retired", ["cache_size", "cache_bytes"])
    def test_retired_cache_bounds_are_not_parameters(self, small_config, retired):
        with pytest.raises(TypeError):
            RoutingEngine(small_config.grid, **{retired: 2})

    @pytest.mark.parametrize("max_tables", [2.7, "5", True])
    def test_non_integer_max_tables_raises_type_error(self, small_config, max_tables):
        """Fractions, strings and bools are not truncated to a table count."""
        with pytest.raises(TypeError, match=f"max_tables must be an integer, got {max_tables!r}"):
            RoutingEngine(small_config.grid, max_tables=max_tables)

    def test_integer_like_max_tables_is_accepted(self, small_config):
        engine = RoutingEngine(small_config.grid, max_tables=np.int64(3))
        assert engine.max_tables == 3 and type(engine.max_tables) is int

    @pytest.mark.parametrize("max_tables", [0, -1, np.int64(-5)])
    def test_max_tables_below_one_raises_value_error(self, small_config, max_tables):
        with pytest.raises(ValueError, match=f"max_tables must be >= 1, got {int(max_tables)}"):
            RoutingEngine(small_config.grid, max_tables=max_tables)

    def test_one_table_cap_keeps_only_the_newest(self, small_config):
        engine = RoutingEngine(small_config.grid, max_tables=1)
        first, second = (random_design(small_config, seed) for seed in range(2))
        engine.tables(first)
        newest = engine.tables(second)
        assert engine.tables(second) is newest
        assert len(engine) == 1
        assert engine.stats()["cached_bytes"] == newest.nbytes
        engine.tables(first)
        assert (engine.hits, engine.misses) == (1, 3)

    @pytest.mark.parametrize("max_tables", [1, 2, 5])
    def test_newest_table_is_always_kept(self, small_config, rng, max_tables):
        """Whatever the cap and whether a request hit, was repaired or was
        built fresh, the table just served is cached and is the most recent."""
        engine = RoutingEngine(small_config.grid, max_tables=max_tables)
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        for step in range(24):
            if step % 5 == 4:
                design = random_design(small_config, rng)
            elif step % 3:
                design = moves.rewire_link(design, rng) or design
            else:
                design = moves.swap_pe(design, rng)
            served = engine.tables(design)
            assert len(engine) <= max_tables
            assert next(reversed(engine._cache)) == design.links
            assert engine._cache[design.links] is served
            assert engine.stats()["cached_bytes"] == sum(
                tables.nbytes for tables in engine._cache.values()
            )
        assert engine.hits and engine.incremental_repairs and engine.misses

    def test_stats_hold_only_the_engine_counters(self, small_config, rng):
        engine = RoutingEngine(small_config.grid)
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        parent = engine.tables(design)
        engine.tables(design)
        child = engine.tables(moves.rewire_link(design, rng))
        assert engine.stats() == {
            "hits": 1,
            "misses": 1,
            "incremental_repairs": 1,
            "requests": 3,
            "hit_rate": 1 / 3,
            "cached_topologies": 2,
            "cached_bytes": parent.nbytes + child.nbytes,
        }

    def test_cached_bytes_sum_the_cached_tables(self, small_config, rng):
        """The gauge equals the tables' ``nbytes`` after every objective has
        read them, so no table grows once it is cached."""
        evaluator = ObjectiveEvaluator(get_workload("BFS", small_config, seed=0), scenario_for(5))
        engine = evaluator.routing_engine
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        designs = [design, moves.rewire_link(design, rng), random_design(small_config, rng)]
        evaluator.evaluate_many(designs)
        assert len(engine) == 3 and engine.incremental_repairs == 1
        assert engine.stats()["cached_bytes"] == sum(tables.nbytes for tables in engine._cache.values())



class TestRetention:
    """The cap only moves time: a seeded search scores the same designs
    whatever the engine keeps, because hit, repair and miss build
    byte-identical tables."""

    @staticmethod
    def search(algorithm: str, max_tables: int):
        experiment = replace(
            ExperimentConfig(),
            platform=PlatformConfig.small_3x3x3(),
            population_size=8,
            max_evaluations=120,
        )
        problem = make_problem(experiment, "BFS", 5)
        engine = RoutingEngine(experiment.platform.grid, max_tables=max_tables)
        problem.evaluator.routing_engine = engine
        result = run_algorithm(
            algorithm, problem, experiment, budget=Budget.evaluations(120), seed=11
        )
        return result, engine

    @pytest.mark.parametrize("algorithm", ["NSGA-II", "MOELA", "MOOS"])
    def test_front_is_independent_of_the_cap(self, algorithm):
        reference, unbounded = self.search(algorithm, max_tables=10**6)
        built = unbounded.misses + unbounded.incremental_repairs
        assert len(unbounded) == built > 8
        fingerprint = front_fingerprint(reference)
        for max_tables in (1, 8, 64, built + 1):
            result, engine = self.search(algorithm, max_tables)
            assert len(engine) == min(max_tables, engine.misses + engine.incremental_repairs)
            assert front_fingerprint(result) == fingerprint, max_tables
            assert result.evaluations == reference.evaluations
            if max_tables > built:
                assert engine.stats() == unbounded.stats()


class TestFromLinks:
    def test_from_links_matches_design_constructor(self, small_config, rng):
        design = random_design(small_config, rng)
        direct = RoutingTables(design, small_config.grid)
        indirect = RoutingTables.from_links(design.links, design.num_tiles, small_config.grid)
        assert_tables_identical(direct, indirect)

    def test_from_links_sorts_into_canonical_order(self, small_config, rng):
        design = random_design(small_config, rng)
        shuffled = list(design.links)[::-1]
        tables = RoutingTables.from_links(shuffled, design.num_tiles, small_config.grid)
        assert tables.links == design.links
