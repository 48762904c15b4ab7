"""Tests for the reference 3D-mesh topology."""

import warnings

import pytest

from repro.noc.constraints import ConstraintChecker
from repro.noc.links import LinkKind, link_kind
from repro.noc.mesh import mesh_design, mesh_links, mesh_placement
from repro.noc.platform import PEType, PlatformConfig


class TestMeshLinks:
    def test_paper_mesh_counts(self):
        config = PlatformConfig.paper_4x4x4()
        links = mesh_links(config)
        grid = config.grid
        planar = [l for l in links if link_kind(l, grid) is LinkKind.PLANAR]
        vertical = [l for l in links if link_kind(l, grid) is LinkKind.VERTICAL]
        assert len(planar) == 96
        assert len(vertical) == 48

    def test_mesh_links_are_unit_length(self, small_config):
        grid = small_config.grid
        for link in mesh_links(small_config):
            assert grid.manhattan_distance(link.a, link.b) == 1

    def test_mesh_exceeding_budget_raises(self):
        config = PlatformConfig(
            n=3, layers=1, num_cpus=2, num_gpus=3, num_llcs=4,
            num_planar_links=10, num_vertical_links=0,
        )
        with pytest.raises(ValueError):
            mesh_links(config)


class TestMeshDesign:
    def test_mesh_design_is_feasible(self, small_config):
        design = mesh_design(small_config)
        assert ConstraintChecker(small_config).is_feasible(design)

    def test_mesh_design_feasible_on_paper_platform(self, paper_config):
        design = mesh_design(paper_config)
        assert ConstraintChecker(paper_config).is_feasible(design)

    def test_mesh_placement_is_permutation_with_llcs_on_edges(self, small_config):
        grid = small_config.grid
        placement = mesh_placement(small_config)
        assert sorted(placement) == list(range(small_config.num_tiles))
        for tile, pe in enumerate(placement):
            if small_config.pe_type(pe) is PEType.LLC:
                assert grid.is_edge_tile(tile)

    def test_mesh_design_needs_no_rng(self, small_config):
        """The mesh design is deterministic, so building it without an RNG warns about nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mesh_design(small_config)
