"""``random_link_placement`` against the scalar-draw loop it replaced.

The spanning-tree loop draws its frontier indices through
:class:`repro.utils.rng.BulkIntegers`; the oracle in
``tests/oracles/constraints.py`` makes one ``rng.integers`` call per pop.
Both must return the same links and leave the generator in the same state,
so every seeded search that starts from a random population is unchanged.
"""

import numpy as np
import pytest

from repro.noc.constraints import random_design, random_link_placement, random_placement
from repro.noc.platform import PlatformConfig
from tests.oracles.constraints import random_link_placement_reference

#: Placements compared per platform; the oracle takes ~15 ms at 64 and 256 tiles.
PLATFORMS = [
    ("tiny_2x2x2", 60),
    ("small_3x3x3", 60),
    ("flat_4x4x1", 60),
    ("paper_4x4x4", 20),
    ("big_8x8x4", 8),
]


@pytest.mark.parametrize("preset, count", PLATFORMS)
@pytest.mark.parametrize("seed", [0, 17])
def test_matches_oracle_links_and_end_state(preset, count, seed):
    config = getattr(PlatformConfig, preset)()
    bulk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(count):
        assert random_link_placement(config, bulk) == random_link_placement_reference(config, scalar)
        assert bulk.bit_generator.state == scalar.bit_generator.state


def test_matches_oracle_inside_random_design():
    # Placement draws come first and share the generator with the links.
    config = PlatformConfig.paper_4x4x4()
    bulk, scalar = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(5):
        design = random_design(config, bulk)
        assert design.placement == random_placement(config, scalar)
        assert design.links == random_link_placement_reference(config, scalar)
    assert bulk.bit_generator.state == scalar.bit_generator.state


def test_unconnectable_candidates_raise_with_the_oracle_end_state():
    # No vertical budget on two layers: the tree can never leave its root's layer.
    config = PlatformConfig(n=2, layers=2, num_cpus=2, num_gpus=3, num_llcs=3,
                            num_planar_links=8, num_vertical_links=0)
    bulk, scalar = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(RuntimeError, match="cannot connect all tiles"):
        random_link_placement(config, bulk)
    with pytest.raises(RuntimeError, match="cannot connect all tiles"):
        random_link_placement_reference(config, scalar)
    assert bulk.bit_generator.state == scalar.bit_generator.state
