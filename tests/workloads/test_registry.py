"""Tests for the workload registry."""

import numpy as np
import pytest

from repro.workloads.registry import WorkloadRegistry, get_workload
from repro.workloads.rodinia import RODINIA_APPLICATIONS
from repro.workloads.workload import Workload


class TestDefaultRegistry:
    def test_lists_all_rodinia_applications(self):
        assert set(WorkloadRegistry().applications()) >= set(RODINIA_APPLICATIONS)

    def test_get_workload_round_trip(self, tiny_config):
        workload = get_workload("BFS", tiny_config, seed=3)
        assert workload.name == "BFS"
        assert workload.config == tiny_config

    def test_get_workload_is_cached(self, tiny_config):
        a = get_workload("BP", tiny_config, seed=3)
        b = get_workload("BP", tiny_config, seed=3)
        assert a is b

    def test_different_seeds_not_cached_together(self, tiny_config):
        a = get_workload("BP", tiny_config, seed=3)
        b = get_workload("BP", tiny_config, seed=4)
        assert a is not b
        assert not np.allclose(a.traffic, b.traffic)


class TestCustomRegistration:
    def _custom_factory(self, config, seed):
        traffic = np.zeros((config.num_tiles, config.num_tiles))
        traffic[0, 1] = 1.0
        power = np.ones(config.num_tiles)
        return Workload("CUSTOM", config, traffic, power)

    def test_register_and_get(self, tiny_config):
        registry = WorkloadRegistry()
        registry.register("custom", self._custom_factory)
        workload = registry.get("CUSTOM", tiny_config)
        assert workload.name == "CUSTOM"
        assert "CUSTOM" in registry.applications()

    def test_duplicate_registration_rejected(self):
        registry = WorkloadRegistry()
        registry.register("custom", self._custom_factory)
        with pytest.raises(ValueError):
            registry.register("custom", self._custom_factory)
        registry.register("custom", self._custom_factory, overwrite=True)

    def test_unknown_application_rejected(self, tiny_config):
        registry = WorkloadRegistry()
        with pytest.raises(KeyError):
            registry.get("missing", tiny_config)
