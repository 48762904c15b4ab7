"""Tests for the synthetic Rodinia application workloads."""

import numpy as np
import pytest

from repro.workloads.rodinia import (
    RODINIA_APPLICATIONS,
    RODINIA_PROFILES,
    generate_rodinia_workload,
)


class TestCatalogue:
    def test_seven_applications_from_the_paper(self):
        assert set(RODINIA_APPLICATIONS) == {"BP", "BFS", "GAU", "HOT", "PF", "SC", "SRAD"}

    def test_profiles_have_descriptions(self):
        for profile in RODINIA_PROFILES.values():
            assert profile.description
            assert profile.compute_kilocycles > 0


class TestGeneration:
    @pytest.mark.parametrize("app", RODINIA_APPLICATIONS)
    def test_every_application_generates_valid_workload(self, tiny_config, app):
        workload = generate_rodinia_workload(app, tiny_config, seed=1)
        assert workload.name == app
        assert workload.traffic.shape == (tiny_config.num_tiles, tiny_config.num_tiles)
        assert workload.total_traffic() > 0
        assert float(workload.power.sum()) > 0

    def test_unknown_application_rejected(self, tiny_config):
        with pytest.raises(KeyError):
            generate_rodinia_workload("NOPE", tiny_config)

    def test_case_insensitive_lookup(self, tiny_config):
        workload = generate_rodinia_workload("bfs", tiny_config, seed=1)
        assert workload.name == "BFS"

    def test_same_seed_reproducible(self, tiny_config):
        a = generate_rodinia_workload("GAU", tiny_config, seed=5)
        b = generate_rodinia_workload("GAU", tiny_config, seed=5)
        assert np.allclose(a.traffic, b.traffic)
        assert np.allclose(a.power, b.power)

    def test_different_seeds_differ(self, tiny_config):
        a = generate_rodinia_workload("GAU", tiny_config, seed=5)
        b = generate_rodinia_workload("GAU", tiny_config, seed=6)
        assert not np.allclose(a.traffic, b.traffic)

    def test_different_applications_differ(self, tiny_config):
        a = generate_rodinia_workload("BFS", tiny_config, seed=5)
        b = generate_rodinia_workload("HOT", tiny_config, seed=5)
        assert not np.allclose(a.traffic, b.traffic)


class TestQualitativeStructure:
    def test_streamcluster_is_cpu_heavy(self, small_config):
        sc = generate_rodinia_workload("SC", small_config, seed=0)
        hot = generate_rodinia_workload("HOT", small_config, seed=0)
        sc_cpu_share = sc.traffic_by_class()["CPU->LLC"] / sc.total_traffic()
        hot_cpu_share = hot.traffic_by_class()["CPU->LLC"] / hot.total_traffic()
        assert sc_cpu_share > hot_cpu_share

    def test_hotspot3d_is_gpu_exchange_heavy(self, small_config):
        hot = generate_rodinia_workload("HOT", small_config, seed=0)
        bfs = generate_rodinia_workload("BFS", small_config, seed=0)
        hot_share = hot.traffic_by_class()["GPU->GPU"] / hot.total_traffic()
        bfs_share = bfs.traffic_by_class()["GPU->GPU"] / bfs.total_traffic()
        assert hot_share > bfs_share

    def test_gpu_power_scales_with_activity(self, small_config):
        hot = generate_rodinia_workload("HOT", small_config, seed=0)  # gpu_activity 1.3
        sc = generate_rodinia_workload("SC", small_config, seed=0)  # gpu_activity 0.7
        gpus = small_config.gpu_ids
        assert hot.power[gpus].sum() > sc.power[gpus].sum()
