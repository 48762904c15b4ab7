"""Tests for the platform configuration."""

from dataclasses import replace

import numpy as np
import pytest

from repro.noc.links import candidate_planar_links
from repro.noc.platform import PEType, PlatformConfig

PRESETS = ("tiny_2x2x2", "small_3x3x3", "flat_4x4x1", "paper_4x4x4", "big_8x8x4")


class TestFactoryConfigs:
    def test_paper_platform_matches_section_v(self):
        config = PlatformConfig.paper_4x4x4()
        assert config.num_tiles == 64
        assert config.num_cpus == 8
        assert config.num_gpus == 40
        assert config.num_llcs == 16
        assert config.num_planar_links == 96
        assert config.num_vertical_links == 48
        assert config.cpu_frequency_ghz == pytest.approx(2.5)
        assert config.gpu_frequency_ghz == pytest.approx(0.7)

    def test_paper_planar_budget_equals_mesh(self):
        config = PlatformConfig.paper_4x4x4()
        assert config.num_planar_links == 2 * config.n * (config.n - 1) * config.layers

    def test_small_and_tiny_configs_are_valid(self):
        for config in (PlatformConfig.small_3x3x3(), PlatformConfig.tiny_2x2x2(), PlatformConfig.flat_4x4x1()):
            assert config.num_cpus + config.num_gpus + config.num_llcs == config.num_tiles

    def test_vertical_budget_matches_candidates(self):
        config = PlatformConfig.paper_4x4x4()
        assert config.max_vertical_candidates == 48

    @pytest.mark.parametrize("preset", PRESETS)
    def test_planar_candidate_count_matches_pool(self, preset):
        config = getattr(PlatformConfig, preset)()
        assert config.max_planar_candidates == len(candidate_planar_links(config))
        assert config.num_planar_links <= config.max_planar_candidates
        assert config.num_links <= config.max_router_degree * config.num_tiles // 2

    @pytest.mark.parametrize("n, layers, max_planar_length", [
        (2, 1, 1), (3, 2, 1), (3, 2, 2), (4, 1, 3), (5, 2, 8), (6, 1, 10),
    ])
    def test_planar_candidate_count_matches_pool_off_preset(self, n, layers, max_planar_length):
        tiles = n * n * layers
        config = PlatformConfig(
            n=n, layers=layers, num_cpus=0, num_gpus=tiles - 1, num_llcs=1,
            num_planar_links=tiles - 1, num_vertical_links=0, max_planar_length=max_planar_length,
        )
        assert config.max_planar_candidates == len(candidate_planar_links(config))


class TestValidation:
    def test_pe_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PlatformConfig(n=2, layers=2, num_cpus=1, num_gpus=1, num_llcs=1,
                           num_planar_links=8, num_vertical_links=4)

    def test_too_many_vertical_links_rejected(self):
        with pytest.raises(ValueError):
            PlatformConfig(n=2, layers=2, num_cpus=2, num_gpus=3, num_llcs=3,
                           num_planar_links=8, num_vertical_links=5)

    def test_insufficient_links_for_connectivity_rejected(self):
        with pytest.raises(ValueError):
            PlatformConfig(n=2, layers=2, num_cpus=2, num_gpus=3, num_llcs=3,
                           num_planar_links=2, num_vertical_links=1)

    def test_llcs_must_fit_on_edge_tiles(self):
        # A 3x3x1 die has 8 edge tiles; 9 LLCs cannot fit.
        with pytest.raises(ValueError):
            PlatformConfig(n=3, layers=1, num_cpus=0, num_gpus=0, num_llcs=9,
                           num_planar_links=12, num_vertical_links=0)

    def test_more_planar_links_than_candidates_rejected(self):
        # A 2x2 die has 6 same-layer tile pairs, so two layers offer 12.
        with pytest.raises(ValueError, match="feasible planar tile pairs 12"):
            PlatformConfig(n=2, layers=2, num_cpus=2, num_gpus=3, num_llcs=3,
                           num_planar_links=50, num_vertical_links=4)

    def test_planar_budget_at_candidate_count_accepted(self):
        config = PlatformConfig(n=2, layers=2, num_cpus=2, num_gpus=3, num_llcs=3,
                                num_planar_links=12, num_vertical_links=4)
        assert config.num_planar_links == config.max_planar_candidates

    def test_short_planar_links_shrink_the_candidate_pool(self):
        # With length-1 links only, a 3x3 die has 12 planar pairs.
        with pytest.raises(ValueError, match="feasible planar tile pairs 12"):
            PlatformConfig(n=3, layers=1, num_cpus=1, num_gpus=4, num_llcs=4,
                           num_planar_links=13, num_vertical_links=0, max_planar_length=1)

    def test_single_tile_layers_have_no_planar_links(self):
        with pytest.raises(ValueError, match="feasible planar tile pairs 0"):
            PlatformConfig(n=1, layers=3, num_cpus=1, num_gpus=1, num_llcs=1,
                           num_planar_links=1, num_vertical_links=2)

    def test_more_links_than_router_ports_rejected(self):
        # 64 routers with 7 ports each can terminate at most 224 links.
        with pytest.raises(ValueError, match="at most 224 links"):
            replace(PlatformConfig.paper_4x4x4(), num_planar_links=200)

    def test_link_budget_at_port_limit_accepted(self):
        config = replace(PlatformConfig.paper_4x4x4(), num_planar_links=176)
        assert config.num_links == config.max_router_degree * config.num_tiles // 2

    def test_zero_llcs_rejected(self):
        with pytest.raises(ValueError):
            PlatformConfig(n=2, layers=1, num_cpus=2, num_gpus=2, num_llcs=0,
                           num_planar_links=4, num_vertical_links=0)


class TestPECatalogue:
    def test_pe_type_blocks(self):
        config = PlatformConfig.tiny_2x2x2()
        types = [config.pe_type(i) for i in range(config.num_tiles)]
        assert types[: config.num_cpus] == [PEType.CPU] * config.num_cpus
        assert types[config.num_cpus : config.num_cpus + config.num_gpus] == [PEType.GPU] * config.num_gpus
        assert types[config.num_cpus + config.num_gpus :] == [PEType.LLC] * config.num_llcs

    def test_id_arrays_partition_all_pes(self):
        config = PlatformConfig.small_3x3x3()
        ids = np.concatenate([config.cpu_ids, config.gpu_ids, config.llc_ids])
        assert sorted(ids.tolist()) == list(range(config.num_tiles))

    def test_pe_type_out_of_range(self):
        config = PlatformConfig.tiny_2x2x2()
        with pytest.raises(ValueError):
            config.pe_type(config.num_tiles)

