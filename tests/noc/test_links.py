"""Tests for link modelling and candidate enumeration."""

import numpy as np
import pytest

from repro.noc.design import NocDesign
from repro.noc.geometry import Grid3D
from repro.noc.links import (
    Link,
    LinkKind,
    candidate_links,
    candidate_planar_links,
    candidate_vertical_links,
    is_feasible_link,
    link_kind,
    link_length,
)
from repro.noc.platform import PlatformConfig


class TestLink:
    def test_make_normalises_order(self):
        assert Link.make(5, 2) == Link(2, 5)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Link(3, 3)

    def test_unordered_construction_rejected(self):
        with pytest.raises(ValueError):
            Link(5, 2)

    def test_other_endpoint(self):
        link = Link(1, 4)
        assert link.other(1) == 4
        assert link.other(4) == 1
        with pytest.raises(ValueError):
            link.other(2)

    def test_links_sort_lexicographically(self):
        links = [Link(2, 5), Link(0, 3), Link(0, 1)]
        assert sorted(links) == [Link(0, 1), Link(0, 3), Link(2, 5)]


class TestClassification:
    def test_planar_and_vertical_kinds(self, tiny_config):
        grid = tiny_config.grid
        planar = Link(0, 1)  # same layer neighbours
        vertical = Link(0, 4)  # same column, adjacent layer in a 2x2x2 grid
        assert link_kind(planar, grid) is LinkKind.PLANAR
        assert link_kind(vertical, grid) is LinkKind.VERTICAL

    def test_diagonal_link_rejected(self, tiny_config):
        grid = tiny_config.grid
        with pytest.raises(ValueError):
            link_kind(Link(0, 5), grid)  # different layer, different column

    def test_link_length_is_manhattan(self):
        grid = Grid3D(4, 1)
        assert link_length(Link(0, 3), grid) == 3
        assert link_length(Link(0, 1), grid) == 1


class TestFeasibility:
    def test_planar_length_limit(self):
        config = PlatformConfig.paper_4x4x4()
        grid = config.grid
        # Opposite corners of one 4x4 layer are 6 units apart (> 5).
        far = Link(0, 15)
        assert grid.coord(0).same_layer(grid.coord(15))
        assert not is_feasible_link(far, config)

    def test_vertical_must_be_adjacent_layers(self):
        config = PlatformConfig.paper_4x4x4()
        two_layers_apart = Link(0, 32)
        assert not is_feasible_link(two_layers_apart, config)
        adjacent = Link(0, 16)
        assert is_feasible_link(adjacent, config)


class TestCandidateEnumeration:
    def test_vertical_candidates_count(self):
        config = PlatformConfig.paper_4x4x4()
        assert len(candidate_vertical_links(config)) == config.max_vertical_candidates

    def test_planar_candidates_respect_length(self):
        config = PlatformConfig.small_3x3x3()
        grid = config.grid
        for link in candidate_planar_links(config):
            assert 1 <= grid.planar_distance(link.a, link.b) <= config.max_planar_length
            assert grid.coord(link.a).same_layer(grid.coord(link.b))

    def test_candidates_are_unique_and_combined(self):
        config = PlatformConfig.tiny_2x2x2()
        all_links = candidate_links(config)
        assert len(all_links) == len(set(all_links))
        assert len(all_links) == len(candidate_planar_links(config)) + len(candidate_vertical_links(config))

    def test_tiny_planar_candidates(self):
        # In a 2x2 layer every pair of tiles is within distance 2, so each
        # layer contributes C(4,2) = 6 planar candidates.
        config = PlatformConfig.tiny_2x2x2()
        assert len(candidate_planar_links(config)) == 12


class TestEndpointTypes:
    """Endpoints must be integers: numpy ints are accepted, anything else raises."""

    def test_numpy_integers_become_python_ints(self):
        link = Link(np.int64(1), np.int32(3))
        assert link == Link(1, 3)
        assert type(link.a) is int and type(link.b) is int
        assert repr(link) == "Link(a=1, b=3)"

    @pytest.mark.parametrize(
        "a, b", [(0, 2.7), (0.0, 2), ("1", "3"), (0, np.float64(2.0)), (None, 1)]
    )
    def test_non_integral_endpoints_raise(self, a, b):
        with pytest.raises(TypeError):
            Link(a, b)

    def test_make_rejects_floats(self):
        with pytest.raises(TypeError):
            Link.make(2.7, 0)

    def test_design_from_arrays_rejects_float_endpoints(self):
        with pytest.raises(TypeError):
            NocDesign.from_arrays(range(8), [(0, 1.5)])

    def test_design_from_arrays_accepts_numpy_pairs(self):
        design = NocDesign.from_arrays(range(8), np.array([[4, 0], [0, 1]]))
        assert design.links == (Link(0, 1), Link(0, 4))
