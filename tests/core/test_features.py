"""Tests for the design featuriser."""

import numpy as np
import pytest

from repro.core.features import DesignFeaturizer
from repro.noc.constraints import random_design
from repro.noc.platform import PlatformConfig
from repro.workloads.registry import get_workload
from tests.oracles.features import DesignFeaturizer as CoordinateFeaturizer


class TestFeaturizer:
    def test_feature_vector_shape_and_names(self, tiny_config, tiny_workload, tiny_designs):
        featurizer = DesignFeaturizer(tiny_config, tiny_workload)
        features = featurizer.features(tiny_designs[0])
        assert features.shape == (len(featurizer.feature_names),)
        assert len(set(featurizer.feature_names)) == len(featurizer.feature_names)

    def test_features_are_finite(self, tiny_config, tiny_workload, tiny_designs):
        featurizer = DesignFeaturizer(tiny_config, tiny_workload)
        for design in tiny_designs:
            assert np.all(np.isfinite(featurizer.features(design)))

    def test_features_deterministic(self, tiny_config, tiny_workload, tiny_designs):
        featurizer = DesignFeaturizer(tiny_config, tiny_workload)
        a = featurizer.features(tiny_designs[0])
        b = featurizer.features(tiny_designs[0])
        assert np.allclose(a, b)

    def test_different_designs_get_different_features(self, tiny_config, tiny_workload, tiny_designs):
        featurizer = DesignFeaturizer(tiny_config, tiny_workload)
        a = featurizer.features(tiny_designs[0])
        b = featurizer.features(tiny_designs[1])
        assert not np.allclose(a, b)

    def test_link_features_match_summary(self, small_config, small_workload, small_designs):
        featurizer = DesignFeaturizer(small_config, small_workload)
        design = small_designs[0]
        features = dict(zip(featurizer.feature_names, featurizer.features(design)))
        lengths = design.link_lengths(small_config.grid)
        degrees = design.degrees()
        assert features["link_length_mean"] == pytest.approx(lengths.mean())
        assert features["link_length_max"] == pytest.approx(lengths.max())
        assert features["degree_max"] == pytest.approx(degrees.max())

    def test_distance_features_are_placement_sensitive(self, small_config, small_workload, small_designs):
        featurizer = DesignFeaturizer(small_config, small_workload)
        values = {
            round(float(featurizer.features(d)[0]), 9) for d in small_designs
        }
        assert len(values) > 1

    def test_works_on_paper_platform(self, paper_config):
        from repro.noc.constraints import random_design
        from repro.workloads.registry import get_workload

        workload = get_workload("GAU", paper_config, seed=0)
        featurizer = DesignFeaturizer(paper_config, workload)
        design = random_design(paper_config, np.random.default_rng(0))
        assert np.all(np.isfinite(featurizer.features(design)))


@pytest.mark.parametrize("preset, count", [
    ("small_3x3x3", 20), ("paper_4x4x4", 20), ("big_8x8x4", 6),
])
@pytest.mark.parametrize("app", ["BFS", "GAU"])
def test_byte_identical_to_coordinate_featurizer(preset, count, app):
    """The table reads give the coordinate decoding's bits at 27, 64 and 256 tiles."""
    config = getattr(PlatformConfig, preset)()
    workload = get_workload(app, config, seed=1)
    tables, oracle = DesignFeaturizer(config, workload), CoordinateFeaturizer(config, workload)
    rng = np.random.default_rng(count)
    for _ in range(count):
        design = random_design(config, rng)
        assert tables.features(design).tobytes() == oracle.features(design).tobytes()


def test_column_power_matches_per_column_sums_beyond_eight_layers():
    # numpy sums eight or more values pairwise, not left to right; the
    # per-column row sums must follow it wherever a column is that tall.
    config = PlatformConfig(n=2, layers=9, num_cpus=6, num_gpus=20, num_llcs=10,
                            num_planar_links=36, num_vertical_links=32)
    workload = get_workload("BFS", config, seed=2)
    tables, oracle = DesignFeaturizer(config, workload), CoordinateFeaturizer(config, workload)
    rng = np.random.default_rng(3)
    for _ in range(10):
        design = random_design(config, rng)
        assert tables.features(design).tobytes() == oracle.features(design).tobytes()
