"""Tests for the per-PE power model."""

import numpy as np
import pytest

from repro.noc.platform import PEType
from repro.workloads.power import DEFAULT_POWER_MODEL, PowerModel


class TestPowerModel:
    def test_baselines_by_type(self):
        model = PowerModel(cpu_base_watts=4.0, gpu_base_watts=2.0, llc_base_watts=1.0)
        assert model.baseline(PEType.CPU) == 4.0
        assert model.baseline(PEType.GPU) == 2.0
        assert model.baseline(PEType.LLC) == 1.0

    def test_generate_shape_and_positivity(self, small_config):
        power = DEFAULT_POWER_MODEL.generate(small_config, rng=np.random.default_rng(0))
        assert power.shape == (small_config.num_tiles,)
        assert np.all(power > 0)

    def test_activity_scales_power(self, small_config):
        model = PowerModel(variation_sigma=1e-9)
        base = model.generate(small_config, rng=np.random.default_rng(0))
        doubled = model.generate(small_config, gpu_activity=2.0, rng=np.random.default_rng(0))
        gpu = small_config.gpu_ids
        cpu = small_config.cpu_ids
        assert np.allclose(doubled[gpu], 2.0 * base[gpu], rtol=1e-6)
        assert np.allclose(doubled[cpu], base[cpu], rtol=1e-6)

    def test_negative_activity_rejected(self, small_config):
        with pytest.raises(ValueError):
            DEFAULT_POWER_MODEL.generate(small_config, cpu_activity=-1.0, rng=0)

    def test_cpu_draws_more_than_llc_on_average(self, small_config):
        power = DEFAULT_POWER_MODEL.generate(small_config, rng=np.random.default_rng(1))
        assert power[small_config.cpu_ids].mean() > power[small_config.llc_ids].mean()

    def test_generation_is_reproducible(self, small_config):
        a = DEFAULT_POWER_MODEL.generate(small_config, rng=np.random.default_rng(2))
        b = DEFAULT_POWER_MODEL.generate(small_config, rng=np.random.default_rng(2))
        assert np.allclose(a, b)
