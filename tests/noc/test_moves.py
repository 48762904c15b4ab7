"""Tests for the neighbourhood move operators."""

import numpy as np
import pytest

from repro.noc.constraints import ConstraintChecker, random_design
from repro.noc.moves import MoveGenerator, mutate
from repro.noc.platform import PEType


@pytest.fixture(scope="module")
def small_moves(small_config):
    return MoveGenerator(small_config)


class TestRandomNeighbor:
    def test_neighbors_are_feasible(self, small_config, small_moves):
        checker = ConstraintChecker(small_config)
        rng = np.random.default_rng(0)
        design = random_design(small_config, rng)
        for _ in range(20):
            neighbor = small_moves.random_neighbor(design, rng)
            assert checker.is_feasible(neighbor)

    def test_neighbors_usually_differ_from_parent(self, small_config, small_moves):
        rng = np.random.default_rng(1)
        design = random_design(small_config, rng)
        neighbors = [small_moves.random_neighbor(design, rng) for _ in range(10)]
        assert any(n != design for n in neighbors)

    def test_neighbor_sequence_is_reproducible_from_the_seed(self, small_config, small_moves):
        design = random_design(small_config, np.random.default_rng(2))
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(7)
            runs.append([small_moves.random_neighbor(design, rng) for _ in range(5)])
        assert runs[0] == runs[1]


class TestIndividualMoves:
    def test_swap_pe_preserves_links(self, small_config, small_moves):
        rng = np.random.default_rng(3)
        design = random_design(small_config, rng)
        swapped = small_moves.swap_pe(design, rng)
        assert swapped is not None
        assert swapped.links == design.links
        assert sorted(swapped.placement) == sorted(design.placement)

    def test_swap_pe_respects_llc_edge_rule(self, small_config, small_moves):
        checker = ConstraintChecker(small_config)
        rng = np.random.default_rng(4)
        design = random_design(small_config, rng)
        for _ in range(20):
            swapped = small_moves.swap_pe(design, rng)
            if swapped is not None:
                assert checker.is_feasible(swapped)

    def test_swap_llc_keeps_feasibility(self, small_config, small_moves):
        checker = ConstraintChecker(small_config)
        rng = np.random.default_rng(5)
        design = random_design(small_config, rng)
        swapped = small_moves.swap_llc(design, rng)
        if swapped is not None:
            assert checker.is_feasible(swapped)
            assert swapped.links == design.links

    def test_rewire_link_keeps_budgets_and_connectivity(self, small_config, small_moves):
        checker = ConstraintChecker(small_config)
        rng = np.random.default_rng(6)
        design = random_design(small_config, rng)
        for _ in range(10):
            rewired = small_moves.rewire_link(design, rng)
            if rewired is not None:
                assert checker.is_feasible(rewired)
                assert rewired.num_links == design.num_links
                assert rewired.placement == design.placement

    def test_rewire_changes_exactly_one_link(self, small_config, small_moves):
        rng = np.random.default_rng(7)
        design = random_design(small_config, rng)
        rewired = small_moves.rewire_link(design, rng)
        if rewired is not None:
            removed = set(design.links) - set(rewired.links)
            added = set(rewired.links) - set(design.links)
            assert len(removed) == 1
            assert len(added) == 1


class TestMutate:
    def test_mutate_returns_feasible_design(self, small_config):
        checker = ConstraintChecker(small_config)
        rng = np.random.default_rng(8)
        design = random_design(small_config, rng)
        mutated = mutate(design, small_config, rng, strength=3)
        assert checker.is_feasible(mutated)

    def test_mutate_strength_minimum_one(self, tiny_config):
        rng = np.random.default_rng(9)
        design = random_design(tiny_config, rng)
        mutated = mutate(design, tiny_config, rng, strength=0)
        assert ConstraintChecker(tiny_config).is_feasible(mutated)
