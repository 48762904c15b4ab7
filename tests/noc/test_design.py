"""Tests for the design encoding."""

import numpy as np
import pytest

from repro.noc.design import NocDesign
from repro.noc.links import Link, LinkKind


class TestConstruction:
    def test_from_arrays_normalises_links(self, tiny_config):
        design = NocDesign.from_arrays(
            placement=range(tiny_config.num_tiles),
            links=[(1, 0), Link(2, 3)],
        )
        assert design.links == (Link(0, 1), Link(2, 3))

    def test_links_are_sorted(self, tiny_designs):
        for design in tiny_designs:
            assert list(design.links) == sorted(design.links)

    def test_repr_mentions_sizes(self, tiny_designs):
        text = repr(tiny_designs[0])
        assert "num_tiles" in text and "num_links" in text


class TestLookups:
    def test_pe_and_tile_are_inverse(self, tiny_designs):
        design = tiny_designs[0]
        for tile in range(design.num_tiles):
            pe = design.pe_at(tile)
            assert design.tile_of(pe) == tile

    def test_tile_of_pe_is_permutation_inverse(self, tiny_designs):
        design = tiny_designs[0]
        inverse = design.tile_of_pe()
        placement = design.placement_array()
        assert np.array_equal(placement[inverse], np.arange(design.num_tiles))

    def test_degrees_sum_to_twice_links(self, tiny_designs):
        design = tiny_designs[0]
        assert int(design.degrees().sum()) == 2 * design.num_links

    def test_adjacency_is_symmetric(self, tiny_designs):
        design = tiny_designs[0]
        adjacency = design.adjacency()
        for node, neighbors in adjacency.items():
            for neighbor in neighbors:
                assert node in adjacency[neighbor]

    def test_links_by_kind_partitions(self, tiny_config, tiny_designs):
        design = tiny_designs[0]
        partition = design.links_by_kind(tiny_config.grid)
        total = len(partition[LinkKind.PLANAR]) + len(partition[LinkKind.VERTICAL])
        assert total == design.num_links

    def test_link_lengths_positive(self, tiny_config, tiny_designs):
        lengths = tiny_designs[0].link_lengths(tiny_config.grid)
        assert np.all(lengths >= 1)

    def test_tiles_of_type_counts(self, tiny_config, tiny_designs):
        from repro.noc.platform import PEType

        design = tiny_designs[0]
        assert len(design.tiles_of_type(tiny_config, PEType.CPU)) == tiny_config.num_cpus
        assert len(design.tiles_of_type(tiny_config, PEType.GPU)) == tiny_config.num_gpus
        assert len(design.tiles_of_type(tiny_config, PEType.LLC)) == tiny_config.num_llcs


class TestIdentity:
    def test_equal_designs_hash_equal(self, tiny_designs):
        design = tiny_designs[0]
        clone = NocDesign(placement=design.placement, links=design.links)
        assert design == clone
        assert hash(design) == hash(clone)

    def test_different_designs_not_equal(self, tiny_designs):
        assert tiny_designs[0] != tiny_designs[1]

    def test_key_is_hashable(self, tiny_designs):
        assert {tiny_designs[0].key(): 1}
